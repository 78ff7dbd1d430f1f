import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resample_reference
from skeltop import (Morphology, ParseError, SwcRecord, ValidationError,
                     parse_swc, resample, write_swc)
from skeltop import swc as swc_mod
from skeltop.swc import MAX_RESAMPLED_NODES, resample_arrays
from skeltop.synth import SynthSpec, generate_tree

from conftest import forests

# below a segment, across segments, and past any tree forests() draws
STEPS = st.one_of(st.floats(0.05, 2.0), st.floats(2.0, 100.0), st.floats(1e4, 1e9))


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

    def test_line_of_unsorted_record(self):
        with pytest.raises(ParseError, match="^line 1: parent id 99 does not exist$"):
            parse_swc("3 3 1 0 0 1 99\n1 1 0 0 0 1 -1\n")

    def test_structure_validated_once(self, monkeypatch):
        calls = []
        validate = swc_mod._validate_structure
        monkeypatch.setattr(swc_mod, "_validate_structure",
                            lambda *args: calls.append(args) or validate(*args))
        parse_swc("2 3 1 0 0 1 1\n1 1 0 0 0 1 -1\n")
        assert len(calls) == 1

    def test_parent_before_child_not_required(self):
        m = parse_swc("2 3 1 0 0 1 1\n1 1 0 0 0 1 -1\n")
        assert [r.id for r in m.records] == [1, 2]

    def test_parent_below_minus_one_message_and_line(self):
        with pytest.raises(ParseError) as exc:
            parse_swc("1 1 0 0 0 1 -1\n# note\n2 3 1 0 0 1 -2\n")
        assert str(exc.value) == "line 3: parent must be -1 or a record id, got -2"

    @pytest.mark.parametrize("text,message", [
        ("# header\n5 1 0 0 0 1 -1\n3 3 1 0 0 1 4\n4 3 2 0 0 1 3\n",
         "line 3: parent chain of id 3 contains a cycle"),
        ("1 1 0 0 0 1 -1\n\n9 3 1 0 0 1 7\n2 3 1 0 0 1 1\n7 3 0 0 0 1 8\n8 3 0 0 0 1 9\n",
         "line 5: parent chain of id 7 contains a cycle"),
    ])
    def test_cycle_message_and_line(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_swc(text)
        assert str(exc.value) == message

    def test_cycle_check_linear_in_chain_length(self):
        """A chain whose parents follow their children in id order (legal
        SWC) parses about as fast as one in forward order."""
        n = 16000

        def chain(reverse):
            if reverse:
                return "".join(f"{i} 3 {i} 0 0 1 {i + 1 if i < n else -1}\n" for i in range(1, n + 1))
            return "".join(f"{i} 3 {i} 0 0 1 {i - 1 if i > 1 else -1}\n" for i in range(1, n + 1))

        def best_time(text):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                m = parse_swc(text)
                times.append(time.perf_counter() - start)
            assert len(m) == n
            return min(times)

        forward, reverse = best_time(chain(False)), best_time(chain(True))
        assert reverse <= 3 * forward, (forward, reverse)


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


def assert_matches_reference(m, step):
    """resample_arrays and resample reproduce the reference bit for bit."""
    ref = resample_reference.resample(m, step)
    positions, radii, parents, sources = resample_arrays(m, step)
    n = len(ref)
    assert positions.shape == (n, 3) and positions.dtype == np.float64
    assert positions.tobytes() == ref.node_positions().tobytes()
    assert radii.tobytes() == np.array([r.radius for r in ref.records], dtype=np.float64).tobytes()
    assert np.array_equal(parents, [r.parent for r in ref.records])
    assert [m.records[s].type_code for s in sources] == [r.type_code for r in ref.records]
    assert [r.id for r in ref.records] == list(range(1, n + 1))
    out = resample(m, step)
    assert out.records == ref.records
    assert write_swc(out) == write_swc(ref)


class TestResampleMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(m=forests(), step=STEPS)
    def test_random_forests(self, m, step):
        assert_matches_reference(m, step)

    @pytest.mark.parametrize("step", [0.05, 0.25, 1.0, 7.0, 1e6])
    def test_single_node(self, step):
        m = parse_swc("42 3 1.5 -2.25 3.0 0.5 -1\n")
        assert_matches_reference(m, step)
        assert resample(m, step).records == (SwcRecord(1, 3, 1.5, -2.25, 3.0, 0.5, -1),)

    @pytest.mark.parametrize("seed", range(6))
    def test_synth_trees(self, seed):
        tree = generate_tree(SynthSpec(seed=seed, dims=(40, 40, 40), n_branch_points=seed % 5))
        for step in (0.05, 0.25, 1.0, 3.0):
            assert_matches_reference(tree, step)

    def test_step_dividing_segment_length(self):
        # length / step lands on an integer, where a length rounded differently
        # from the reference would change the number of pieces
        rng = np.random.default_rng(5)
        for end in rng.normal(0.0, 10.0, size=(300, 3)):
            m = Morphology((SwcRecord(1, 1, 0.5, -1.25, 2.0, 1.0, -1),
                            SwcRecord(2, 3, *(float(v) for v in end), 2.0, 1)))
            length = float(np.sqrt(((end - np.array([0.5, -1.25, 2.0])) ** 2).sum()))
            for k in (1, 2, 3, 5, 7):
                assert_matches_reference(m, length / k)

    def test_empty(self):
        m = Morphology(())
        assert resample(m, 0.5) is m
        assert [len(a) for a in resample_arrays(m, 0.5)] == [0, 0, 0, 0]

    def test_too_many_nodes_refused(self):
        m = parse_swc("1 1 0 0 0 1 -1\n2 3 1e300 0 0 1 1\n")
        for step in (0.5, 1e300 / (2 * MAX_RESAMPLED_NODES)):
            with pytest.raises(ValidationError, match="nodes"):
                resample_arrays(m, step)


class TestMorphologyInvariants:
    def test_total_length(self):
        m = parse_swc("1 1 0 0 0 1 -1\n2 3 3 4 0 1 1\n")
        assert m.total_length() == pytest.approx(5.0, abs=1e-12)

    def test_validation_at_construction(self):
        with pytest.raises(ParseError, match="^parent id 7 does not exist$"):
            Morphology((SwcRecord(1, 1, 0, 0, 0, 1, 7),))
