from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_empty_slot, make_slot, make_stream, unit_vec
from scopetrack import io, synth
from scopetrack.errors import DataError
from scopetrack.model import (
    FramePrediction,
    QuerySlot,
    StreamHeader,
    VideoStream,
)
from scopetrack.tracker import (
    TrackerConfig,
    TrackingOutput,
    TrackState,
    TrackSummary,
    iou_baseline_track,
    step,
    track_video,
)


def scale_stream(stream: VideoStream, c: float) -> VideoStream:
    return VideoStream(header=stream.header, frames=tuple(
        FramePrediction(f.frame_index, tuple(
            QuerySlot(
                embedding=tuple(c * x for x in s.embedding),
                box=s.box, classes=s.classes, mask=s.mask,
            ) for s in f.slots
        )) for f in stream.frames
    ))


def gap_stream(header, gap: int) -> VideoStream:
    frames = []
    for _ in range(3):
        frames.append([make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    for _ in range(gap):
        frames.append([make_empty_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    for _ in range(3):
        frames.append([make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    return make_stream(header, frames)


def assigned_ids(output):
    return [dict(f.assignments) for f in output.frames]


class TestStepSemantics:
    def test_persistent_object_single_track(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))]
            for _ in range(10)
        ])
        out = track_video(stream)
        assert all(ids == {0: 0} for ids in assigned_ids(out))
        assert len(out.tracks) == 1
        assert out.tracks[0].observations == tuple((t, 0) for t in range(10))

    def test_five_frame_gap_keeps_id(self, header):
        out = track_video(gap_stream(header, 5))
        ids = {tid for f in out.frames for _, tid in f.assignments}
        assert ids == {0}

    def test_six_frame_gap_retires_id(self, header):
        out = track_video(gap_stream(header, 6))
        assert assigned_ids(out)[-1] == {0: 1}
        assert len(out.tracks) == 2

    def test_ids_follow_embeddings_not_slots(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_slot(unit_vec(1))],
            [make_slot(unit_vec(1)), make_slot(unit_vec(0))],
        ])
        out = track_video(stream)
        assert assigned_ids(out) == [{0: 0, 1: 1}, {0: 1, 1: 0}]

    def test_carry_forward_disabled_dies_immediately(self, header):
        cfg = TrackerConfig(carry_forward=False)
        out = track_video(gap_stream(header, 1), cfg)
        ids = {tid for f in out.frames for _, tid in f.assignments}
        assert ids == {0, 1}

    def test_state_unchanged_on_error(self, header):
        state = TrackState()
        frame = FramePrediction(0, (make_slot(unit_vec(0)), make_empty_slot(unit_vec(1))))
        state, _ = step(state, frame)
        before = state
        bad = FramePrediction(1, (make_slot((1.0, 0.0)),))  # wrong embedding length
        with pytest.raises(DataError):
            step(state, bad)
        assert state == before

    def test_similarity_floor_forces_birth(self, header):
        cfg = TrackerConfig(similarity_floor=0.9)
        stream = make_stream(header, [
            [make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))],
            [make_slot(unit_vec(1)), make_empty_slot(unit_vec(3))],
        ])
        out = track_video(stream, cfg)
        # orthogonal embedding falls below the floor: old track skips, new id
        assert assigned_ids(out) == [{0: 0}, {0: 1}]


class TestTrackVideo:
    def test_empty_stream(self, header):
        out = track_video(VideoStream(header=header, frames=()))
        assert out.frames == () and out.tracks == ()

    def test_single_frame_birth_order(self, header):
        stream = make_stream(header, [[make_slot(unit_vec(0)), make_slot(unit_vec(1))]])
        out = track_video(stream)
        assert assigned_ids(out) == [{0: 0, 1: 1}]

    def test_determinism(self, header):
        rng = np.random.default_rng(5)
        frames = []
        for _ in range(20):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.4
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        assert track_video(stream) == track_video(stream)

    def test_fold_equals_step(self, header):
        rng = np.random.default_rng(6)
        frames = []
        for _ in range(30):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.4
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        folded = track_video(stream)
        state = TrackState()
        outs = []
        for frame in stream.frames:
            state, out = step(state, frame)
            outs.append(out)
        assert tuple(outs) == folded.frames

    def test_scale_invariance(self, header):
        rng = np.random.default_rng(7)
        frames = []
        for _ in range(15):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.3
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        base = track_video(stream)
        for c in (2.0, 0.5, 3.7, 1000.0):
            scaled = track_video(scale_stream(stream, c))
            assert scaled.frames == base.frames
            assert scaled.tracks == base.tracks

    def test_slot_permutation_equivariance(self):
        header = StreamHeader(n_queries=3, embed_dim=4, frame_height=100,
                              frame_width=100, classes=("AD", "HP"))
        rng = np.random.default_rng(8)
        frames = []
        for _ in range(12):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.3
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(3)
            ])
        stream = make_stream(header, frames)
        perm = (2, 0, 1)  # slot j of the permuted stream is slot perm[j] here
        permuted = VideoStream(header=header, frames=tuple(
            FramePrediction(f.frame_index, tuple(f.slots[perm[j]] for j in range(3)))
            for f in stream.frames
        ))
        base = track_video(stream)
        moved = track_video(permuted)

        def partition(output, slot_map):
            groups = {}
            for f in output.frames:
                for slot, tid in f.assignments:
                    groups.setdefault(tid, set()).add((f.frame_index, slot_map[slot]))
            return {frozenset(v) for v in groups.values()}

        assert partition(base, {j: j for j in range(3)}) == partition(moved, dict(enumerate(perm)))

    def test_id_hygiene_fuzz(self, header):
        rng = np.random.default_rng(9)
        frames = []
        for _ in range(400):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.5
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        out = track_video(stream)
        for f in out.frames:
            ids = [tid for _, tid in f.assignments]
            assert len(ids) == len(set(ids))
        # each id belongs to exactly one track record
        ids = [t.track_id for t in out.tracks]
        assert len(ids) == len(set(ids))
        for track in out.tracks:
            obs_frames = [f for f, _ in track.observations]
            assert obs_frames == sorted(obs_frames)
            # a track never survives more than 5 consecutive empty frames
            for a, b in zip(obs_frames, obs_frames[1:]):
                assert b - a <= 6, f"track {track.track_id} resumed after retirement"


class TestIouBaseline:
    def test_static_object_matches_query_tracker(self, header):
        stream = make_stream(header, [
            [make_slot(unit_vec(0), box=(10, 10, 30, 30)), make_empty_slot(unit_vec(3))]
            for _ in range(8)
        ])
        q = track_video(stream)
        b = iou_baseline_track(stream)
        assert assigned_ids(q) == assigned_ids(b)

    def test_teleporting_object_breaks_iou_but_not_query(self, header):
        frames = []
        for t in range(6):
            x = 0.0 if t % 2 == 0 else 60.0  # farther than its own size
            frames.append([
                make_slot(unit_vec(0), box=(x, 0, x + 20, 20)),
                make_empty_slot(unit_vec(3)),
            ])
        stream = make_stream(header, frames)
        q = track_video(stream)
        assert {tid for f in q.frames for _, tid in f.assignments} == {0}
        b = iou_baseline_track(stream)
        assert len({tid for f in b.frames for _, tid in f.assignments}) > 1

    def test_empty_stream(self, header):
        out = iou_baseline_track(VideoStream(header=header, frames=()))
        assert out.frames == () and out.tracks == ()

    def test_detection_parity_with_query_tracker(self, header):
        rng = np.random.default_rng(10)
        frames = []
        for _ in range(40):
            frames.append([
                make_slot(tuple(rng.normal(size=4)),
                          box=tuple(sorted(rng.uniform(0, 50, 2))) + (60.0, 70.0))
                if rng.random() > 0.4
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        q = track_video(stream)
        b = iou_baseline_track(stream)
        det_q = {(f.frame_index, s) for f in q.frames for s, _ in f.assignments}
        det_b = {(f.frame_index, s) for f in b.frames for s, _ in f.assignments}
        assert det_q == det_b


class TestConfig:
    def test_bad_threshold(self):
        with pytest.raises(DataError):
            TrackerConfig(empty_threshold=0.0)

    def test_bad_patience(self):
        with pytest.raises(DataError):
            TrackerConfig(death_patience=0)

    def test_numpy_patience_held_as_int(self):
        config = TrackerConfig(death_patience=np.int64(2))
        assert config.death_patience == 2 and type(config.death_patience) is int


class TestAssignedSlotsNonEmpty:
    def test_every_assigned_slot_is_nonempty(self, header):
        rng = np.random.default_rng(14)
        frames = []
        for _ in range(60):
            frames.append([
                make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.5
                else make_empty_slot(tuple(rng.normal(size=4)))
                for _ in range(2)
            ])
        stream = make_stream(header, frames)
        for output in (track_video(stream), iou_baseline_track(stream)):
            for fa, frame in zip(output.frames, stream.frames):
                for slot, _ in fa.assignments:
                    assert not frame.slots[slot].is_empty(0.5)


def reference_query_tracker(stream, tau=0.5, patience=5):
    """Plain-dict re-implementation of the association semantics, using
    scalar cosine and the enumeration solver; oracle for track_video."""
    from scopetrack.assignment import CostMatrix, brute_force_solve

    def cosine(a, b):
        va, vb = np.asarray(a), np.asarray(b)
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na < 1e-12 or nb < 1e-12:
            return 0.0
        return min(1.0, max(-1.0, float(va @ vb / (na * nb))))

    live = []  # dicts: id, emb, streak, obs
    retired = []
    next_id = 0
    per_frame = []
    for frame in stream.frames:
        slots = frame.slots
        nonempty = {j for j, s in enumerate(slots) if s.classes.max_prob >= tau}
        if live:
            cost = CostMatrix(tuple(
                tuple(-cosine(t["emb"], s.embedding) for s in slots)
                for t in live
            ))
            matched = dict(brute_force_solve(cost).pairs)
        else:
            matched = {}
        assigned = {}
        for i, t in enumerate(live):
            j = matched.get(i)
            if j is not None and j in nonempty:
                t["emb"] = slots[j].embedding
                t["streak"] = 0
                t["obs"].append((frame.frame_index, j))
                assigned[j] = t["id"]
            else:
                t["streak"] += 1
        still = [t for t in live if t["streak"] <= patience]
        retired += [t for t in live if t["streak"] > patience]
        live = still
        for j in sorted(nonempty - set(assigned)):
            live.append({"id": next_id, "emb": slots[j].embedding,
                         "streak": 0, "obs": [(frame.frame_index, j)]})
            assigned[j] = next_id
            next_id += 1
        per_frame.append(tuple(sorted(assigned.items())))
    table = {t["id"]: tuple(t["obs"]) for t in live + retired}
    return per_frame, table


class TestReferenceTrackerOracle:
    def test_fuzz_against_reference(self, header):
        from scopetrack.model import StreamHeader
        wide = StreamHeader(n_queries=3, embed_dim=4, frame_height=100,
                            frame_width=100, classes=("AD", "HP"))
        rng = np.random.default_rng(2025)
        for trial in range(25):
            frames = []
            for _ in range(40):
                frames.append([
                    make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.45
                    else make_empty_slot(tuple(rng.normal(size=4)))
                    for _ in range(3)
                ])
            stream = make_stream(wide, frames)
            out = track_video(stream)
            got_frames = [f.assignments for f in out.frames]
            got_table = {t.track_id: t.observations for t in out.tracks}
            want_frames, want_table = reference_query_tracker(stream)
            assert got_frames == want_frames, trial
            assert got_table == want_table, trial


def reference_iou_tracker(stream, iou_floor, tau=0.5, patience=5):
    """Plain-dict re-implementation of the IoU baseline, using scalar box
    overlap, decoded-pixel mask overlap and the enumeration solver; oracle
    for iou_baseline_track."""
    from scopetrack.assignment import CostMatrix, brute_force_solve
    from scopetrack.model import rle_decode

    def overlap(t, slot):
        if t["mask"] is not None and slot.mask is not None:
            a = rle_decode(t["mask"]).astype(bool)
            b = rle_decode(slot.mask).astype(bool)
            union = int((a | b).sum())
            return int((a & b).sum()) / union if union else 0.0
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = t["box"], slot.box.as_tuple()
        inter = (max(0.0, min(ax2, bx2) - max(ax1, bx1))
                 * max(0.0, min(ay2, by2) - max(ay1, by1)))
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        return inter / union if union > 0.0 else 0.0

    live = []  # dicts: id, box, mask, streak, obs
    retired = []
    next_id = 0
    per_frame = []
    for frame in stream.frames:
        slots = frame.slots
        nonempty = [j for j, s in enumerate(slots) if s.classes.max_prob >= tau]
        scores = [[overlap(t, slots[j]) for j in nonempty] for t in live]
        if live and nonempty:
            cost = CostMatrix(tuple(tuple(-v for v in row) for row in scores))
            matched = dict(brute_force_solve(cost).pairs)
        else:
            matched = {}
        assigned = {}
        for i, t in enumerate(live):
            col = matched.get(i)
            if col is not None and scores[i][col] >= iou_floor:
                j = nonempty[col]
                t.update(box=slots[j].box.as_tuple(), mask=slots[j].mask, streak=0)
                t["obs"].append((frame.frame_index, j))
                assigned[j] = t["id"]
            else:
                t["streak"] += 1
        retired += [t for t in live if t["streak"] > patience]
        live = [t for t in live if t["streak"] <= patience]
        for j in nonempty:
            if j not in assigned:
                live.append({"id": next_id, "box": slots[j].box.as_tuple(),
                             "mask": slots[j].mask, "streak": 0,
                             "obs": [(frame.frame_index, j)]})
                assigned[j] = next_id
                next_id += 1
        per_frame.append(tuple(sorted(assigned.items())))
    table = {t["id"]: tuple(t["obs"]) for t in live + retired}
    return per_frame, table


def drifting_boxes_stream(rng, with_masks: bool) -> VideoStream:
    """Three objects random-walk (and now and then jump) over a 32x32 frame;
    each frame shows them in shuffled slots, some hidden. Masks drop random
    pixels of their box, so mask overlap differs from box overlap."""
    from scopetrack.model import rle_encode
    header = StreamHeader(n_queries=3, embed_dim=4, frame_height=32,
                          frame_width=32, classes=("AD", "HP"))
    objects = [[rng.uniform(4, 28), rng.uniform(4, 28), rng.uniform(3, 6)]
               for _ in range(3)]
    frames = []
    for _ in range(40):
        slots = []
        for obj in objects:
            if rng.random() < 0.05:
                obj[:2] = rng.uniform(4, 28, size=2)
            obj[0] = float(np.clip(obj[0] + rng.normal(0, 1.5), obj[2], 32 - obj[2]))
            obj[1] = float(np.clip(obj[1] + rng.normal(0, 1.5), obj[2], 32 - obj[2]))
            if rng.random() < 0.25:
                slots.append(make_empty_slot(tuple(rng.normal(size=4))))
                continue
            cx, cy, r = obj
            mask = None
            if with_masks and rng.random() < 0.8:
                bitmap = np.zeros((32, 32), dtype=np.uint8)
                bitmap[int(cy - r):int(cy + r), int(cx - r):int(cx + r)] = 1
                bitmap &= (rng.random((32, 32)) < 0.8).astype(np.uint8)
                mask = rle_encode(bitmap)
            slots.append(make_slot(tuple(rng.normal(size=4)),
                                   box=(cx - r, cy - r, cx + r, cy + r), mask=mask))
        frames.append([slots[k] for k in rng.permutation(3)])
    return make_stream(header, frames)


class TestReferenceIouTrackerOracle:
    def test_fuzz_against_reference(self):
        rng = np.random.default_rng(2026)
        floor_mattered = 0
        for trial in range(24):
            stream = drifting_boxes_stream(rng, with_masks=trial % 2 == 1)
            floor = (0.1, 0.3, 0.55)[trial % 3]
            out = iou_baseline_track(stream, iou_floor=floor)
            got_frames = [f.assignments for f in out.frames]
            got_table = {t.track_id: t.observations for t in out.tracks}
            want_frames, want_table = reference_iou_tracker(stream, floor)
            assert got_frames == want_frames, trial
            assert got_table == want_table, trial
            floor_mattered += reference_iou_tracker(stream, 0.0)[0] != want_frames
        # the data must reach the floor, or the floor comparison goes untested
        assert floor_mattered >= 12


def loop_table(frames):
    """The track table, built by one loop over the per-frame assignments."""
    rows = {}
    for fa in frames:
        for slot, track_id in fa.assignments:
            rows.setdefault(track_id, []).append((fa.frame_index, slot))
    return tuple(TrackSummary(track_id, tuple(rows[track_id])) for track_id in sorted(rows))


class TestTrackTable:
    """A tracking's track table is read off its frames, whatever built it."""

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("name", synth.SCENARIO_NAMES)
    def test_tracks_equal_loop_over_frames(self, tmp_path, name, seed):
        stream = synth.generate(synth.scenario_config(name, seed))[1]
        for tracking in (track_video(stream), iou_baseline_track(stream)):
            path = tmp_path / "tracks.jsonl"
            io.write_tracking(tracking, stream, path)
            from_file, _ = io.read_tracking(path)
            for output in (tracking, from_file):
                assert output.tracks
                assert output.tracks == loop_table(output.frames)
                for track in output.tracks:
                    frames = [f for f, _ in track.observations]
                    assert (track.first_frame, track.last_frame, track.frame_count) == (
                        min(frames), max(frames), len(frames))

    def test_tracks_is_not_an_argument(self):
        with pytest.raises(TypeError):
            TrackingOutput(frames=(), tracks=(), config={})


def renormalizing_fold(frames, cfg=TrackerConfig()):
    """The query tracker's assignments when every step re-normalizes each
    live track's last embedding, as the tracker did before it carried unit
    rows: the same formula, written out, with the enumeration solver."""
    from scopetrack.assignment import CostMatrix, brute_force_solve

    def normalized_rows(mat):
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        out = np.zeros_like(mat)
        ok = norms[:, 0] >= 1e-12
        out[ok] = mat[ok] / norms[ok]
        return out

    patience = cfg.death_patience if cfg.carry_forward else 0
    live = []  # (track_id, last embedding, empty streak)
    next_id = 0
    per_frame = []
    for frame in frames:
        slots = frame.slots
        nonempty = [j for j, s in enumerate(slots) if not s.is_empty(cfg.empty_threshold)]
        matched = {}
        if live and slots:
            prev = np.asarray([emb for _, emb, _ in live], dtype=np.float64)
            curr = np.asarray([s.embedding for s in slots], dtype=np.float64)
            sims = normalized_rows(prev) @ normalized_rows(curr).T
            np.clip(sims, -1.0, 1.0, out=sims)
            matched = dict(brute_force_solve(CostMatrix((-sims).tolist())).pairs)
        taken, survivors = {}, []
        for i, (track_id, emb, streak) in enumerate(live):
            j = matched.get(i)
            if j in nonempty:
                survivors.append((track_id, slots[j].embedding, 0))
                taken[j] = track_id
            elif streak < patience:
                survivors.append((track_id, emb, streak + 1))
        for j in nonempty:
            if j not in taken:
                survivors.append((next_id, slots[j].embedding, 0))
                taken[j] = next_id
                next_id += 1
        live = survivors
        per_frame.append(tuple(sorted(taken.items())))
    return per_frame


@st.composite
def embedding_frames(draw, dim=3):
    """Up to 10 frames of up to 3 slots. Embeddings come from a small palette,
    so rows repeat, and the palette holds a zero row and magnitudes up to
    1e150 either way."""
    value = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
    palette = draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=4))
    palette.append((0.0,) * dim)
    slot = st.tuples(st.sampled_from(palette), st.booleans()).map(
        lambda pick: make_slot(pick[0]) if pick[1] else make_empty_slot(pick[0]))
    frames = draw(st.lists(st.lists(slot, min_size=1, max_size=3), min_size=1, max_size=10))
    return [FramePrediction(t, tuple(slots)) for t, slots in enumerate(frames)]


def fold_steps(frames, cfg=TrackerConfig()):
    state, out = TrackState(), []
    for frame in frames:
        state, fa = step(state, frame, cfg)
        out.append(fa.assignments)
    return out


class TestCarriedKeys:
    """Each live track carries the unit row of the slot it took."""

    @given(embedding_frames())
    @settings(max_examples=300, deadline=None)
    def test_carried_rows_equal_renormalizing(self, frames):
        assert fold_steps(frames) == renormalizing_fold(frames)

    @pytest.mark.parametrize("live", [False, True], ids=["births_only", "live_tracks"])
    def test_ragged_frame_is_data_error(self, live):
        state = TrackState()
        if live:
            state, _ = step(state, FramePrediction(0, (make_slot(unit_vec(0)),
                                                       make_slot(unit_vec(1)))))
        before = state
        ragged = FramePrediction(1, (make_slot(unit_vec(0)), make_slot((1.0, 0.0, 0.0))))
        with pytest.raises(DataError, match=r"^slot embeddings differ in length: \[3, 4\]$"):
            step(state, ragged)
        assert state == before and state is before

    def test_embedding_width_differs_from_live_tracks(self):
        state, _ = step(TrackState(), FramePrediction(0, (make_slot(unit_vec(0)),)))
        with pytest.raises(DataError, match=r"^embedding dims differ: 4 vs 2$"):
            step(state, FramePrediction(1, (make_slot((1.0, 0.0)), make_slot((0.0, 1.0)))))

    @pytest.mark.parametrize("zero_is_live", [True, False])
    @pytest.mark.parametrize("zero", [(0.0,) * 4, (1e-13, 0.0, 0.0, 0.0),
                                      (-1e-13, 0.0, 0.0, 0.0)])
    def test_zero_embedding_scores_zero(self, zero, zero_is_live):
        # a score reaches the floor 0.0 and not the floor 5e-324 only when it is 0
        partners = [unit_vec(0), unit_vec(3), (-1.0, -1.0, -1.0, -1.0),
                    (3.0, -4.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0)]
        for partner in partners:
            first, second = (zero, partner) if zero_is_live else (partner, zero)
            for floor, taken_by in ((0.0, 0), (5e-324, 1)):
                cfg = TrackerConfig(similarity_floor=floor)
                state, _ = step(TrackState(), FramePrediction(0, (make_slot(first),)), cfg)
                _, out = step(state, FramePrediction(1, (make_slot(second),)), cfg)
                assert out.assignments == ((0, taken_by),), (partner, floor)

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1.7e308])
    def test_overflowing_norms_follow_embeddings(self, scale):
        # the squared norm of (1e200, 1e200) overflows; cosine ignores scale
        a, b = (scale, scale), (scale, -scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, first = step(TrackState(), FramePrediction(0, (make_slot(a), make_slot(b))))
            _, second = step(state, FramePrediction(1, (make_slot(b), make_slot(a))))
        assert first.assignments == ((0, 0), (1, 1))
        # one comparison, so a failure shows both the assignment and the warnings
        assert (second.assignments, [str(w.message) for w in caught]) == (((0, 1), (1, 0)), [])
