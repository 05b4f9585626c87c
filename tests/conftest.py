from __future__ import annotations

import os

import pytest
from hypothesis import settings

from scopetrack.model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    QuerySlot,
    StreamHeader,
    VideoStream,
)

# CI sets HYPOTHESIS_PROFILE=ci so that every run draws the same examples.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def unit_vec(i: int, dim: int = 4) -> tuple[float, ...]:
    v = [0.0] * dim
    v[i] = 1.0
    return tuple(v)


def make_slot(embedding, box=(0.0, 0.0, 10.0, 10.0), probs=(0.9, 0.0), mask=None) -> QuerySlot:
    return QuerySlot(
        embedding=tuple(embedding),
        box=BBox(*box),
        classes=ClassDistribution(tuple(probs)),
        mask=mask,
    )


def make_empty_slot(embedding) -> QuerySlot:
    return QuerySlot(
        embedding=tuple(embedding),
        box=BBox(0.0, 0.0, 0.0, 0.0),
        classes=ClassDistribution((0.0, 0.0)),
    )


@pytest.fixture
def header() -> StreamHeader:
    return StreamHeader(
        n_queries=2, embed_dim=4, frame_height=100, frame_width=100,
        classes=("AD", "HP"),
    )


def make_stream(header: StreamHeader, frames) -> VideoStream:
    return VideoStream(
        header=header,
        frames=tuple(
            FramePrediction(frame_index=t, slots=tuple(slots))
            for t, slots in enumerate(frames)
        ),
    )
