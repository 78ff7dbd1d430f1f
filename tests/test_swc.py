import numpy as np
import pytest

from skeltop import (Morphology, ParseError, SwcRecord, ValidationError,
                     parse_swc, resample, write_swc)
from skeltop.synth import SynthSpec, generate_tree


class TestParse:
    def test_single_root(self):
        m = parse_swc("1 2 0.0 0.0 0.0 1.0 -1\n")
        assert len(m) == 1
        rec = m.records[0]
        assert (rec.id, rec.type_code, rec.parent) == (1, 2, -1)
        assert rec.position() == (0.0, 0.0, 0.0)

    def test_comments_only(self):
        m = parse_swc("# header\n#x y z\n\n")
        assert m.is_empty()

    def test_comments_and_blank_lines_skipped(self):
        text = "# c\n1 1 0 0 0 1 -1\n\n# mid\n2 3 1 0 0 1 1\n"
        assert len(parse_swc(text)) == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_swc("1 1 0 0 0 1 -1\n2 3 1 0 0 1\n")

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_swc("1 1 zero 0 0 1 -1\n")

    def test_duplicate_id(self):
        with pytest.raises(ParseError, match="duplicate id 1"):
            parse_swc("1 1 0 0 0 1 -1\n1 3 1 0 0 1 1\n")

    def test_dangling_parent_names_line(self):
        with pytest.raises(ParseError, match="line 2.*99"):
            parse_swc("1 1 0 0 0 1 -1\n2 3 1 0 0 1 99\n")

    def test_cycle(self):
        with pytest.raises(ParseError, match="cycle"):
            parse_swc("1 1 0 0 0 1 2\n2 3 1 0 0 1 1\n")

    def test_self_parent_cycle(self):
        with pytest.raises(ParseError, match="cycle"):
            parse_swc("1 1 0 0 0 1 1\n")

    def test_nonpositive_radius(self):
        with pytest.raises(ParseError, match="radius"):
            parse_swc("1 1 0 0 0 0.0 -1\n")

    @pytest.mark.parametrize("line,what", [
        ("2 3 nan 0 0 1 1", "coordinates"), ("2 3 0 inf 0 1 1", "coordinates"),
        ("2 3 0 0 -inf 1 1", "coordinates"), ("2 3 0 0 0 nan 1", "radius"),
        ("2 3 0 0 0 inf 1", "radius"),
    ])
    def test_non_finite_fields(self, line, what):
        with pytest.raises(ParseError, match=f"line 2: {what}"):
            parse_swc("1 1 0 0 0 1 -1\n" + line + "\n")

    def test_parent_before_child_not_required(self):
        m = parse_swc("2 3 1 0 0 1 1\n1 1 0 0 0 1 -1\n")
        assert [r.id for r in m.records] == [1, 2]


class TestWrite:
    def test_round_trip_identity(self):
        text = ("1 1 0.5 1.25 -3.0 1.0 -1\n"
                "2 3 4.125 1.25 -3.0 0.75 1\n"
                "3 3 4.125 9.0 -3.0 0.5 2\n"
                "5 3 7.0 1.0 2.0 0.5 2\n")
        m = parse_swc(text)
        again = parse_swc(write_swc(m))
        assert again.records == m.records

    def test_round_trip_generated_corpus(self):
        for seed in range(12):
            spec = SynthSpec(seed=seed, dims=(30, 30, 30), n_branch_points=seed % 4)
            tree = generate_tree(spec)
            assert parse_swc(write_swc(tree)).records == tree.records

    def test_ids_ascending(self):
        m = Morphology((SwcRecord(5, 3, 1, 1, 1, 1, 2), SwcRecord(2, 1, 0, 0, 0, 1, -1)))
        lines = write_swc(m).strip().splitlines()
        assert lines[0].startswith("2 ") and lines[1].startswith("5 ")

    def test_empty(self):
        assert write_swc(Morphology(())) == ""


def seg_lengths(m):
    return [float(np.sqrt((np.subtract(c.position(), p.position()) ** 2).sum()))
            for p, c in m.segments()]


class TestResample:
    def test_short_segment_unchanged(self):
        m = parse_swc("1 1 0 0 0 1 -1\n2 3 1 0 0 1 1\n")
        out = resample(m, 2.0)
        assert len(out) == 2
        assert out.total_length() == pytest.approx(m.total_length(), abs=1e-12)

    def test_length_four_step_one(self):
        m = parse_swc("1 1 0 0 0 1 -1\n2 3 4 0 0 1 1\n")
        out = resample(m, 1.0)
        assert len(out) == 5  # 3 interior points inserted
        xs = sorted(r.x for r in out.records)
        assert xs == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0], abs=1e-12)

    def test_spacing_bound_random_trees(self):
        for seed in (3, 4, 5):
            tree = generate_tree(SynthSpec(seed=seed, dims=(34, 34, 34), n_branch_points=3))
            out = resample(tree, 1.0)
            assert max(seg_lengths(out)) <= 1.0 + 1e-9
            # endpoints preserved
            orig = {r.position() for r in tree.records}
            new = {r.position() for r in out.records}
            assert orig <= new
            # still a tree
            assert sum(1 for r in out.records if r.parent == -1) == 1
            assert out.total_length() == pytest.approx(tree.total_length(), abs=1e-9)

    def test_radius_interpolated(self):
        m = parse_swc("1 1 0 0 0 1.0 -1\n2 3 4 0 0 3.0 1\n")
        out = resample(m, 1.0)
        rad = sorted(r.radius for r in out.records)
        assert rad == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0], abs=1e-12)

    def test_invalid_step(self):
        with pytest.raises(ValidationError):
            resample(Morphology(()), 0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_step(self, step):
        with pytest.raises(ValidationError):
            resample(Morphology(()), step)


class TestMorphologyInvariants:
    def test_total_length(self):
        m = parse_swc("1 1 0 0 0 1 -1\n2 3 3 4 0 1 1\n")
        assert m.total_length() == pytest.approx(5.0, abs=1e-12)

    def test_validation_at_construction(self):
        with pytest.raises(ParseError):
            Morphology((SwcRecord(1, 1, 0, 0, 0, 1, 7),))
