from __future__ import annotations

import copy
import dataclasses
import pickle
import re
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopetrack import assignment, losses, metrics, model, report, synth, tracker
from scopetrack.errors import DataError, DimensionError, MaskFormatError
from scopetrack.model import (
    BBox,
    ClassDistribution,
    Embedding,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    GroundTruthStream,
    QuerySlot,
    RleMask,
    StreamHeader,
    VideoStream,
    box_iou,
    intervals_overlap,
    mask_iou,
    rle_decode,
    rle_encode,
    validate_stream,
)
from conftest import make_empty_slot, make_slot, make_stream, unit_vec


def pixel_iou(a: BBox, b: BBox, size: int = 16) -> float:
    """Rasterization oracle: count half-open integer pixels."""
    grid_a = np.zeros((size, size), dtype=bool)
    grid_b = np.zeros((size, size), dtype=bool)
    grid_a[int(a.y1):int(a.y2), int(a.x1):int(a.x2)] = True
    grid_b[int(b.y1):int(b.y2), int(b.x1):int(b.x2)] = True
    union = (grid_a | grid_b).sum()
    return (grid_a & grid_b).sum() / union if union else 0.0


class TestRle:
    def test_all_background(self):
        mask = rle_encode(np.zeros((2, 2)))
        assert mask.runs == (4,)
        assert np.array_equal(rle_decode(mask), np.zeros((2, 2), dtype=np.uint8))

    def test_all_foreground(self):
        mask = rle_encode(np.ones((2, 2)))
        assert mask.runs == (0, 4)
        assert np.array_equal(rle_decode(mask), np.ones((2, 2), dtype=np.uint8))

    def test_hand_walked_scan(self):
        # row-major flattening of [[1,0,0],[0,1,1]] is 1 0 0 0 1 1
        grid = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        mask = rle_encode(grid)
        assert mask.runs == (0, 1, 3, 2)
        assert np.array_equal(rle_decode(mask), grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(DimensionError):
            rle_encode(np.zeros((0, 3)))

    def test_malformed_runs_rejected(self):
        with pytest.raises(MaskFormatError):
            RleMask(height=2, width=2, runs=(3,))
        with pytest.raises(MaskFormatError):
            RleMask(height=2, width=2, runs=(1, 0, 3))
        with pytest.raises(MaskFormatError):
            RleMask(height=2, width=2, runs=(-1, 5))

    @pytest.mark.parametrize("height, width", [(0, 4), (4, 0), (-1, 4), (0, 0)])
    def test_non_positive_size_rejected(self, height, width):
        with pytest.raises(MaskFormatError) as info:
            RleMask(height=height, width=width, runs=(0,))
        assert str(info.value) == f"mask dimensions must be positive, got {height}x{width}"

    def test_no_runs_rejected(self):
        with pytest.raises(MaskFormatError) as info:
            RleMask(height=2, width=2, runs=())
        assert str(info.value) == "mask needs at least one run"

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, seed, h, w):
        rng = np.random.Generator(np.random.Philox(seed))
        grid = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        assert np.array_equal(rle_decode(rle_encode(grid)), grid)


class TestBoxIou:
    def test_identity(self):
        assert box_iou(BBox(0, 0, 2, 2), BBox(0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert box_iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_partial_overlap_matches_rasterization(self):
        a, b = BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)
        # pixel oracle: intersection 2 px, union 6 px
        assert pixel_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert box_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_degenerate_is_zero(self):
        assert box_iou(BBox(1, 1, 1, 1), BBox(0, 0, 2, 2)) == 0.0
        assert box_iou(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bounded_and_matches_oracle(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x1, y1 = rng.integers(0, 12, size=2)
        x2, y2 = x1 + rng.integers(0, 5), y1 + rng.integers(0, 5)
        u1, v1 = rng.integers(0, 12, size=2)
        u2, v2 = u1 + rng.integers(0, 5), v1 + rng.integers(0, 5)
        a = BBox(float(x1), float(y1), float(x2), float(y2))
        b = BBox(float(u1), float(v1), float(u2), float(v2))
        iou = box_iou(a, b)
        assert iou == box_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert iou == pytest.approx(pixel_iou(a, b), abs=1e-12)

    def test_bad_box_rejected(self):
        with pytest.raises(DimensionError):
            BBox(2, 0, 1, 1)
        with pytest.raises(DimensionError):
            BBox(0, 0, float("nan"), 1)


class TestMaskIou:
    def test_identity(self):
        m = rle_encode(np.array([[1, 0], [1, 1]]))
        assert mask_iou(m, m) == 1.0

    def test_zero_vs_full(self):
        zeros = rle_encode(np.zeros((3, 3)))
        ones = rle_encode(np.ones((3, 3)))
        assert mask_iou(zeros, ones) == 0.0

    def test_counted_overlap(self):
        # |A|=2, |B|=3, intersection 1 -> 1/4
        a = rle_encode(np.array([[1, 1, 0], [0, 0, 0]]))
        b = rle_encode(np.array([[0, 1, 1], [1, 0, 0]]))
        assert mask_iou(a, b) == 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mask_iou(rle_encode(np.ones((2, 2))), rle_encode(np.ones((2, 3))))

    def test_matches_decode_oracle_on_random_pairs(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(1000):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            ga = (rng.random((h, w)) < rng.random()).astype(np.uint8)
            gb = (rng.random((h, w)) < rng.random()).astype(np.uint8)
            a, b = rle_encode(ga), rle_encode(gb)
            da, db = rle_decode(a).astype(bool), rle_decode(b).astype(bool)
            union = int((da | db).sum())
            want = int((da & db).sum()) / union if union else 0.0
            assert mask_iou(a, b) == want
            assert mask_iou(a, b) == mask_iou(b, a)


class TestClassDistribution:
    def test_residual_mass(self):
        dist = ClassDistribution((0.3, 0.2))
        assert dist.no_object_mass == pytest.approx(0.5)

    def test_overfull_rejected(self):
        with pytest.raises(DimensionError):
            ClassDistribution((0.8, 0.4))

    @pytest.mark.parametrize("probs", [(1.5,), (0.2, -0.1), (0.0, 1.0 + 1e-8)])
    def test_probability_outside_unit_interval_rejected(self, probs):
        with pytest.raises(DimensionError) as info:
            ClassDistribution(probs)
        assert str(info.value) == f"class probabilities out of [0,1]: {probs}"

    def test_slack_at_the_ends_is_held(self):
        assert ClassDistribution((-1e-10, 1.0 + 1e-10)).probs == (-1e-10, 1.0 + 1e-10)

    @staticmethod
    def loop_argmax(probs) -> int:
        best = 0
        for i, p in enumerate(probs):
            if p > probs[best]:
                best = i
        return best

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-10, 0.1, 0.125, 0.2])
                    | st.floats(0.0, 0.2), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_max_prob_and_argmax_equal_the_loop(self, probs):
        # ties, +-0.0 and the empty set: the stored maximum is max()'s bits,
        # and argmax the first index of the highest probability
        dist = ClassDistribution(probs)
        assert dist.max_prob.hex() == max(dist.probs, default=0.0).hex()
        assert dist.argmax() == self.loop_argmax(dist.probs)
        assert repr(dist) == f"ClassDistribution(probs={dist.probs!r})"
        twin = ClassDistribution(tuple(reversed(probs)))
        assert (dist == twin) == (dist.probs == twin.probs)
        assert dist == ClassDistribution(list(probs))
        assert hash(dist) == hash(ClassDistribution(list(probs)))

    def test_signed_zeros_compare_equal(self):
        # the stored maxima differ in sign; equality and hash follow probs only
        a, b = ClassDistribution((0.0, -0.0)), ClassDistribution((-0.0, 0.0))
        assert (a.max_prob.hex(), b.max_prob.hex()) == ((0.0).hex(), (-0.0).hex())
        assert a == b and hash(a) == hash(b)
        assert (a.argmax(), b.argmax()) == (0, 0)

    def test_max_prob_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ClassDistribution((0.5,), max_prob=0.5)


class TestValidateStream:
    def test_well_formed(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_empty_slot(unit_vec(1))]
            for _ in range(3)
        ])
        assert validate_stream(stream) == []

    def test_missing_slot_names_frame(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_empty_slot(unit_vec(1))],
            [make_slot(unit_vec(0))],
        ])
        violations = validate_stream(stream)
        assert len(violations) == 1
        assert "frame 1" in violations[0]

    def test_wrong_embedding_length_names_slot(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_slot((1.0, 0.0), probs=(0.9, 0.0))],
        ])
        violations = validate_stream(stream)
        assert len(violations) == 1
        assert "slot 1" in violations[0]

    def test_non_increasing_frame_index(self, header):
        from scopetrack.model import FramePrediction, VideoStream
        frames = (
            FramePrediction(3, (make_slot(unit_vec(0)), make_empty_slot(unit_vec(1)))),
            FramePrediction(3, (make_slot(unit_vec(0)), make_empty_slot(unit_vec(1)))),
        )
        stream = VideoStream(header=header, frames=frames)
        assert any("strictly increasing" in v for v in validate_stream(stream))

    def test_non_finite_embedding_rejected(self):
        with pytest.raises(DimensionError):
            QuerySlot(
                embedding=(float("inf"), 0.0),
                box=BBox(0, 0, 1, 1),
                classes=ClassDistribution((0.5,)),
            )


def _bits(values) -> list[bytes]:
    return [struct.pack("d", v) for v in values]


# ints, floats (both zeros and the ends of the float range included) and numpy real scalars
_EMBEDDING_VALUES = st.one_of(
    st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
)


class TestEmbedding:
    """An Embedding holds packed float64 bytes and behaves as the tuple of its floats."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EMBEDDING_VALUES, max_size=40))
    def test_behaves_as_tuple_of_floats(self, values):
        emb = Embedding(values)
        want = tuple(float(v) for v in values)
        assert len(emb) == len(want)
        assert tuple(emb) == want and _bits(emb) == _bits(want)
        assert _bits(emb[i] for i in range(-len(want), len(want))) == _bits(
            want[i] for i in range(-len(want), len(want)))
        assert emb[1:-1:2] == want[1:-1:2]
        assert emb == want and emb == Embedding(want) and not emb != want
        assert hash(emb) == hash(want)
        assert repr(emb) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=40).map(
            lambda values: np.array(values, dtype=np.float32)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40).map(np.array),
        st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=40).map(
            lambda values: np.array(values, dtype=np.int64)),
    ))
    def test_numpy_arrays(self, array):
        emb = Embedding(array)
        want = tuple(float(v) for v in array)
        assert emb == want and repr(emb) == repr(want) and hash(emb) == hash(want)
        assert _bits(emb) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EMBEDDING_VALUES, max_size=40))
    def test_packed_bytes_round_trip_every_bit(self, values):
        emb = Embedding(values)
        want = [float(v) for v in values]
        assert emb.data == struct.pack(f"{len(want)}d", *want)
        assert _bits(np.frombuffer(emb.data)) == _bits(want)
        assert _bits(emb.astuple()) == _bits(want)
        assert Embedding(emb).data == emb.data

    def test_signed_zeros_equal(self):
        pos, neg = Embedding([0.0, 1.0]), Embedding([-0.0, 1.0])
        assert pos.data != neg.data
        assert pos == neg and hash(pos) == hash(neg)
        assert pos == (-0.0, 1.0) and neg == (0.0, 1)

    def test_unequal(self):
        emb = Embedding([1.0, 2.0])
        assert emb != Embedding([1.0]) and emb != Embedding([2.0, 1.0])
        assert emb != (1.0,) and emb != [1.0, 2.0] and emb != b""

    @pytest.mark.parametrize("values, error, message", [
        ([1.0, True], DataError, "embedding must be a number, got True"),
        ([False], DataError, "embedding must be a number, got False"),
        ([0.5, "0.5"], DataError, "embedding must be a number, got '0.5'"),
        ([None], DataError, "embedding must be a number, got None"),
        ([1.0, float("nan")], DimensionError, "embedding values must be finite"),
        ([float("inf")], DimensionError, "embedding values must be finite"),
        ([0.0, float("-inf")], DimensionError, "embedding values must be finite"),
        (np.array([1.0, np.nan]), DimensionError, "embedding values must be finite"),
    ], ids=["true", "false", "string", "null", "nan", "inf", "minus_inf", "numpy_nan"])
    def test_rejected_values(self, values, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Embedding(values)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            QuerySlot(embedding=values, box=BBox(0, 0, 1, 1), classes=ClassDistribution((0.5,)))

    def test_integer_beyond_float_range(self):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            Embedding([1.0, 10 ** 400])

    def test_slot_keeps_a_packed_embedding(self):
        slot = make_slot((1.0, 0.0, -0.0, 2.0))
        assert type(slot.embedding) is Embedding
        assert replace(slot, box=BBox(0, 0, 2, 2)).embedding is slot.embedding
        assert QuerySlot(slot.embedding, slot.box, slot.classes).embedding is slot.embedding

    def test_immutable(self):
        emb = Embedding([1.0])
        with pytest.raises(FrozenInstanceError):
            emb.data = b"\0" * 8
        with pytest.raises(FrozenInstanceError):
            del emb.data
        with pytest.raises(AttributeError):
            emb.other = 1
        assert emb == (1.0,)

    def test_numpy_reads_it_as_a_sequence(self):
        rows = np.asarray([Embedding([1.0, -0.0]), Embedding([2, 3])], dtype=np.float64)
        assert rows.shape == (2, 2) and _bits(rows.ravel()) == _bits([1.0, -0.0, 2.0, 3.0])

    def test_copies_and_pickles_keep_bits(self):
        emb = Embedding([-0.0, 1e308, 5e-324])
        for again in (copy.copy(emb), copy.deepcopy(emb), pickle.loads(pickle.dumps(emb))):
            assert type(again) is Embedding and again.data == emb.data


class TestNumberRule:
    """A held number is an int, a float or a numpy real scalar, never a bool
    or a string; mask sizes and runs are integers, never fractions."""

    def test_boolean_box_rejected(self):
        with pytest.raises(DataError, match="box"):
            BBox(True, 0.0, 2.0, 2.0)

    def test_numpy_box_held_as_floats(self):
        box = BBox(np.float32(0.5), 0.0, 2.0, 2.0)
        assert type(box.x1) is float and box.x1 == 0.5

    def test_integer_box_held_as_floats(self):
        assert all(type(c) is float for c in BBox(0, 0, 10, 10).as_tuple())

    @pytest.mark.parametrize("probs", [("0.9",), (True,)], ids=["string", "boolean"])
    def test_probs_must_be_numbers(self, probs):
        with pytest.raises(DataError, match="probs"):
            ClassDistribution(probs)

    def test_string_embedding_rejected(self):
        with pytest.raises(DataError, match="embedding"):
            QuerySlot(embedding=("1", "0"), box=BBox(0, 0, 1, 1),
                      classes=ClassDistribution((0.5,)))

    def test_numpy_embedding_held_as_floats(self):
        slot = QuerySlot(embedding=np.array([1.0, 0.25], dtype=np.float32),
                         box=BBox(0, 0, 1, 1), classes=ClassDistribution((0.5,)))
        assert slot.embedding == (1.0, 0.25)
        assert all(type(v) is float for v in slot.embedding)

    def test_finite_values_whose_sum_overflows_held(self):
        slot = QuerySlot(embedding=(1e308, 1e308), box=BBox(0, 0, 1e308, 1e308),
                         classes=ClassDistribution((0.5,)))
        assert slot.embedding == (1e308, 1e308)

    @pytest.mark.parametrize("embedding", [(float("inf"), float("-inf")), (float("nan"), 1.0)],
                             ids=["infinities", "nan"])
    def test_non_finite_values_rejected(self, embedding):
        with pytest.raises(DimensionError, match="embedding"):
            QuerySlot(embedding=embedding, box=BBox(0, 0, 1, 1),
                      classes=ClassDistribution((0.5,)))

    def test_iterators_taken_whole(self):
        slot = QuerySlot(embedding=iter([1.0, 0.0]), box=BBox(0, 0, 1, 1),
                         classes=ClassDistribution(p for p in (0.5, 0.25)))
        assert slot.embedding == (1.0, 0.0) and slot.classes.probs == (0.5, 0.25)
        assert RleMask(1, 4, (r for r in (2, 2))).runs == (2, 2)

    def test_fractional_runs_rejected(self):
        with pytest.raises(DataError, match="runs"):
            RleMask(1, 4, (2.9, 2.1))

    def test_numpy_runs_held_as_ints(self):
        mask = RleMask(np.int64(1), np.int64(4), (np.int64(2), np.int64(2)))
        assert mask == RleMask(1, 4, (2, 2))
        assert all(type(v) is int for v in (mask.height, mask.width, *mask.runs))


def _slotted_samples() -> list:
    """One instance of each slotted record type, its fields filled in."""
    box, mask = BBox(0.0, 1.0, 2.0, 3.0), RleMask(2, 2, (1, 3))
    slot = QuerySlot(Embedding([1.0, -0.0]), box, ClassDistribution((0.25, 0.5)), mask)
    header = StreamHeader(1, 2, 2, 2, ("AD", "HP"), version=2, video_id="v",
                          extra={"site": ["B"]})
    gt_object = GroundTruthObject(3, box, "HP", mask)
    frames = (tracker.FrameAssignments(0, ((0, 7),)), tracker.FrameAssignments(2, ((0, 7),)))
    entry = report.PolypReportEntry(7, "HP", 0.5, 2, 0, 2)
    return [
        box, mask, slot.classes, slot, FramePrediction(0, (slot,)), gt_object,
        GroundTruthFrame(0, (gt_object,)), header,
        VideoStream(header, (FramePrediction(0, (slot,)),)),
        GroundTruthStream(header, (GroundTruthFrame(0, (gt_object,)),)),
        tracker.TrackerConfig(similarity_floor=0.25), tracker.TrackRecord(7, b"key", 1),
        tracker.TrackState((tracker.TrackRecord(7, slot),), 8), frames[0],
        tracker.TrackSummary(7, ((0, 0), (2, 0))),
        tracker.TrackingOutput(frames, config={"death_patience": 5}),
        metrics.DetEvalResult(0.5, 0.25, 1.0, 0.5, 1, 0, 1),
        metrics.TrackEvalResult(0.5, 0.5, 0.5, 0.25, 0.75),
        metrics.TrackedDet(7, box, mask),
        metrics.TrackedSequence((0,), ((metrics.TrackedDet(7, box),),)),
        assignment.CostMatrix(((1.0, 2), (0.5, -1.0))),
        assignment.Assignment(((0, 1), (1, 0)), 1.5),
        entry, report.ExamReport("v", (entry,), {"min_frames": 1}),
        synth.SynthConfig(occlusions=((0, 1, 2),)), losses.LossWeights(w_cls=1.0),
    ]


def test_every_frozen_record_type_but_loss_breakdown_is_sampled():
    frozen = {cls for module in (assignment, losses, metrics, model, report, synth, tracker)
              for cls in vars(module).values()
              if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
              and cls.__dataclass_params__.frozen}
    assert frozen - {type(sample) for sample in _slotted_samples()} == {losses.LossBreakdown}


@pytest.mark.parametrize("sample", _slotted_samples(), ids=lambda sample: type(sample).__name__)
def test_slotted_record_type(sample):
    """No instance dict; fields stay frozen; copies, pickles, replace and
    asdict keep every field, the init=False ones (ClassDistribution.max_prob,
    TrackingOutput.tracks) included."""
    assert not hasattr(sample, "__dict__")
    name = dataclasses.fields(sample)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(sample, name, getattr(sample, name))
    for again in (copy.copy(sample), copy.deepcopy(sample),
                  pickle.loads(pickle.dumps(sample)), replace(sample)):
        assert type(again) is type(sample) and again == sample
        for f in dataclasses.fields(sample):
            assert getattr(again, f.name) == getattr(sample, f.name), f.name
        assert dataclasses.asdict(again) == dataclasses.asdict(sample)


class TestRecordFields:
    """The record types check their own integer and string fields: numpy
    integers are held as ints, anything else raises DataError naming the
    field, with the message the readers give for the same value in a file."""

    def test_numpy_frame_index_held_as_int(self):
        frame = FramePrediction(frame_index=np.int64(3), slots=())
        assert frame.frame_index == 3 and type(frame.frame_index) is int
        frame = GroundTruthFrame(frame_index=np.uint8(3), objects=())
        assert frame.frame_index == 3 and type(frame.frame_index) is int

    def test_smallest_header_held(self):
        header = StreamHeader(n_queries=1, embed_dim=1, frame_height=1, frame_width=1,
                              classes=["AD"])
        assert (header.n_queries, header.embed_dim, header.frame_height,
                header.frame_width, header.classes) == (1, 1, 1, 1, ("AD",))

    def test_type_checked_before_size(self):
        with pytest.raises(DataError, match="^n_queries must be an integer, got 0.0$"):
            StreamHeader(n_queries=0.0, embed_dim=0, frame_height=0, frame_width=0,
                         classes=())

    def test_numpy_header_fields_held_as_ints(self):
        header = StreamHeader(n_queries=np.int64(1), embed_dim=np.int32(2),
                              frame_height=4, frame_width=4, classes=["AD"])
        assert (header.n_queries, header.embed_dim, header.classes) == (1, 2, ("AD",))
        assert type(header.n_queries) is int and type(header.embed_dim) is int

    def test_fractional_track_id_rejected(self):
        with pytest.raises(DataError, match="^gt_track_id must be an integer, got 1.5$"):
            GroundTruthObject(gt_track_id=1.5, box=BBox(0, 0, 1, 1), class_label="AD")

    @pytest.mark.parametrize("field, value, message", [
        ("n_queries", 2.0, "n_queries must be an integer, got 2.0"),
        ("version", True, "version must be an integer, got True"),
        ("video_id", 7, "video_id must be a string, got 7"),
        ("classes", "AD", "classes must be an array of strings, got 'AD'"),
        ("classes", ("AD", 1), "classes must be an array of strings, got ('AD', 1)"),
        ("n_queries", 0, "n_queries must be positive, got 0"),
        ("embed_dim", -3, "embed_dim must be positive, got -3"),
        ("frame_height", 0, "frame size must be positive, got 0x4"),
        ("frame_width", -1, "frame size must be positive, got 4x-1"),
        ("classes", (), "class set is empty"),
        ("classes", [], "class set is empty"),
        ("extra", {"n_queries": 3}, "extra header keys name header fields: ['n_queries']"),
        ("extra", {"z": 0, "version": 2, "classes": []},
         "extra header keys name header fields: ['classes', 'version']"),
    ])
    def test_bad_header_fields_rejected(self, field, value, message):
        fields = dict(n_queries=1, embed_dim=2, frame_height=4, frame_width=4,
                      classes=("AD",))
        fields[field] = value
        with pytest.raises(DataError) as info:
            StreamHeader(**fields)
        assert str(info.value) == message

    def test_bad_frame_index_and_class_rejected(self):
        with pytest.raises(DataError, match="^frame_index must be an integer, got '0'$"):
            FramePrediction(frame_index="0", slots=())
        with pytest.raises(DataError, match="^frame_index must be an integer, got 0.0$"):
            GroundTruthFrame(frame_index=0.0, objects=())
        with pytest.raises(DataError, match="^class must be a string, got None$"):
            GroundTruthObject(gt_track_id=0, box=BBox(0, 0, 1, 1), class_label=None)


class TestIntervals:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_foreground_intervals_read_off_the_decoded_grid(self, bits):
        mask = rle_encode(np.array([bits]))
        flat = rle_decode(mask).ravel()
        assert flat.tolist() == bits
        padded = np.concatenate(([0], flat, [0])).astype(np.int8)
        edges = np.flatnonzero(np.diff(padded)).tolist()
        got = mask.foreground_intervals()
        assert got == list(zip(edges[0::2], edges[1::2]))
        assert all(type(v) is int for pair in got for v in pair)

    @staticmethod
    def _intervals(points):
        points = sorted(points)
        return [(points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)]

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(0, 80), max_size=24), st.sets(st.integers(0, 80), max_size=24))
    def test_intervals_overlap_counts_shared_pixels(self, a_points, b_points):
        a = [list(pair) for pair in self._intervals(a_points)]
        b = self._intervals(b_points)
        pixels_a = {x for start, end in a for x in range(start, end)}
        pixels_b = {x for start, end in b for x in range(start, end)}
        assert intervals_overlap(a, b) == len(pixels_a & pixels_b)
        assert intervals_overlap(b, a) == len(pixels_a & pixels_b)
