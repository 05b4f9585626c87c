"""Domain types for detection streams plus mask codec and box/mask geometry.

All types are immutable value objects; the operations below are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import FrozenInstanceError, dataclass, field, fields
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, DimensionError, MaskFormatError

PROB_SLACK = 1e-9


def require_int(value, name: str) -> int:
    """value as an int: a Python or numpy integer; a bool, float or string
    raises DataError."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise DataError(f"{name} must be an integer, got {value!r}")


def require_str(value, name: str) -> str:
    """value itself when it is a string; a number, list or null raises DataError."""
    if type(value) is not str:
        raise DataError(f"{name} must be a string, got {value!r}")
    return value


def _convert(values, name: str, kinds: tuple, what: str, convert) -> list | tuple:
    """values as a list or tuple of convert(value); each must be one of kinds,
    not a bool. A list or tuple holding only convert's own type is returned
    as it is."""
    values = values if type(values) in (tuple, list) else list(values)
    types = set(map(type, values))  # one C-level pass, as embeddings are wide
    if not types <= {int, convert}:
        for value in values:
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DataError(f"{name} must be {what}, got {value!r}")
    return values if types <= {convert} else list(map(convert, values))


def _finite_floats(values, name: str) -> list | tuple:
    """values as finite floats: ints, floats or numpy real scalars. A bool or
    a string raises DataError, NaN or an infinity DimensionError."""
    floats = _convert(values, name, (int, float, np.integer, np.floating), "a number", float)
    # a sum is finite only if every term is; the exact test runs when it overflows
    if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
        raise DimensionError(f"{name} values must be finite")
    return floats


def require_floats(values, name: str) -> tuple[float, ...]:
    """values as a tuple of finite floats, as _finite_floats takes them; a
    tuple of floats is returned as it is."""
    return tuple(_finite_floats(values, name))


def require_ints(values, name: str) -> tuple[int, ...]:
    """values as ints: Python or numpy integers, not bools."""
    return tuple(_convert(values, name, (int, np.integer), "an integer", int))


def require_range(value, name: str, low: float, high: float,
                  open_low: bool = False, open_high: bool = False) -> float:
    """value as a float when it is a number in the interval from low to high.

    Each end is included unless marked open. NaN is in no interval; a bool
    or a string is not a number.
    """
    if type(value) not in (int, float):
        raise DataError(f"{name} must be a number, got {value!r}")
    above = low < value if open_low else low <= value
    below = value < high if open_high else value <= high
    if not (above and below):
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
        raise DataError(f"{name} must be in {interval}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise DataError(f"{name} must be within float range, "
                        f"got an integer of {len(str(abs(value)))} digits") from None


class Embedding:
    """An embedding's values held as their packed native float64 bytes,
    `data`: 8 bytes a value, where a tuple of Python floats takes 32.

    Built from ints, floats or numpy real scalars, as require_floats takes
    them, with its errors. It iterates, indexes, measures, compares and
    hashes like the tuple of its floats, so +0.0 equals -0.0 and an
    Embedding equals that tuple. np.frombuffer(embedding.data) reads the
    values as a read-only float64 array without a copy.
    """

    __slots__ = ("data",)

    def __init__(self, values) -> None:
        floats = _finite_floats(values, "embedding")
        object.__setattr__(self, "data", struct.pack(f"{len(floats)}d", *floats))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def astuple(self) -> tuple[float, ...]:
        """The values as a tuple of Python floats, unpacked in one C-level call."""
        return struct.unpack(f"{len(self.data) >> 3}d", self.data)

    def __len__(self) -> int:
        return len(self.data) >> 3

    def __iter__(self) -> Iterator[float]:
        return iter(self.astuple())

    def __getitem__(self, index):
        return self.astuple()[index]

    def __eq__(self, other) -> bool:
        if type(other) is Embedding:
            # equal bytes are equal values; unequal ones may differ in a zero's sign
            return self.data == other.data or self.astuple() == other.astuple()
        if isinstance(other, tuple):
            return self.astuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.astuple())

    def __repr__(self) -> str:
        return repr(self.astuple())

    def __reduce__(self):
        # copy, deepcopy (dataclasses.asdict) and pickle rebuild it from its
        # values, as __setattr__ refuses the default slot-by-slot restore
        return (Embedding, (self.astuple(),))


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in absolute pixel coordinates, x1y1x2y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        raw = (self.x1, self.y1, self.x2, self.y2)
        coords = require_floats(raw, "box")
        if coords is not raw:  # the same tuple back means every field already holds a float
            for name, value in zip(("x1", "y1", "x2", "y2"), coords):
                object.__setattr__(self, name, value)
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise DimensionError(f"box corners out of order: {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True)
class RleMask:
    """Binary mask as row-major run lengths, first run is background.

    The leading background run may be zero; every later run must be
    positive and the runs must sum to height*width.
    """

    height: int
    width: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        height, width = require_ints((self.height, self.width), "mask size")
        for name, value in (("height", height), ("width", width),
                            ("runs", require_ints(self.runs, "runs"))):
            object.__setattr__(self, name, value)
        if height <= 0 or width <= 0:
            raise MaskFormatError(f"mask dimensions must be positive, got {height}x{width}")
        if not self.runs:
            raise MaskFormatError("mask needs at least one run")
        if min(self.runs) < 0:
            raise MaskFormatError(f"negative run length in {self.runs}")
        if 0 in self.runs[1:]:
            raise MaskFormatError("only the leading background run may be zero")
        total = sum(self.runs)
        if total != self.height * self.width:
            raise MaskFormatError(
                f"runs sum to {total}, expected {self.height * self.width}"
            )

    @property
    def area(self) -> int:
        """Number of foreground pixels."""
        return sum(self.runs[1::2])

    def foreground_intervals(self) -> list[tuple[int, int]]:
        """Half-open [start, end) foreground intervals in flat row-major order.

        Run i ends at the i-th prefix sum; every run after the first is
        positive, so each odd run is one interval from the end before it.
        """
        ends = list(accumulate(self.runs))
        return list(zip(ends[0::2], ends[1::2]))


@dataclass(frozen=True, slots=True)
class ClassDistribution:
    """Foreground class probabilities; the leftover mass means 'no object'."""

    probs: tuple[float, ...]
    max_prob: float = field(init=False, repr=False, compare=False)  # 0.0 with no class

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", require_floats(self.probs, "probs"))
        if any(p < -PROB_SLACK or p > 1 + PROB_SLACK for p in self.probs):
            raise DimensionError(f"class probabilities out of [0,1]: {self.probs}")
        if sum(self.probs) > 1 + PROB_SLACK:
            raise DimensionError(f"class probabilities sum beyond 1: {self.probs}")
        object.__setattr__(self, "max_prob", max(self.probs, default=0.0))

    @property
    def no_object_mass(self) -> float:
        return max(0.0, 1.0 - sum(self.probs))

    def argmax(self) -> int:
        """The first class of highest probability; 0 with no class."""
        return self.probs.index(self.max_prob) if self.probs else 0


@dataclass(frozen=True, slots=True)
class QuerySlot:
    """One object-query slot: embedding plus its decoded head outputs.

    The embedding is held as an Embedding; one given as an Embedding is kept
    as it is."""

    embedding: Embedding
    box: BBox
    classes: ClassDistribution
    mask: RleMask | None = None

    def __post_init__(self) -> None:
        if type(self.embedding) is not Embedding:
            object.__setattr__(self, "embedding", Embedding(self.embedding))

    def is_empty(self, tau: float) -> bool:
        """A slot is 'no object' when no foreground class reaches tau."""
        return self.classes.max_prob < tau


@dataclass(frozen=True, slots=True)
class FramePrediction:
    """All N query slots of one frame."""

    frame_index: int
    slots: tuple[QuerySlot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(self, "frame_index", require_int(self.frame_index, "frame_index"))
        if self.frame_index < 0:
            raise DimensionError(f"frame_index must be >= 0, got {self.frame_index}")


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """One annotated object with a stable ground-truth track identity."""

    gt_track_id: int
    box: BBox
    class_label: str
    mask: RleMask | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gt_track_id", require_int(self.gt_track_id, "gt_track_id"))
        require_str(self.class_label, "class")


@dataclass(frozen=True, slots=True)
class GroundTruthFrame:
    frame_index: int
    objects: tuple[GroundTruthObject, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "frame_index", require_int(self.frame_index, "frame_index"))


@dataclass(frozen=True, slots=True)
class StreamHeader:
    """First line of every stream file; fixes N, C, H, W (each at least 1) and
    the class set (not empty, no class twice). extra holds the line's other
    keys, none named like a field."""

    n_queries: int
    embed_dim: int
    frame_height: int
    frame_width: int
    classes: tuple[str, ...]
    version: int = 1
    video_id: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        classes = self.classes
        if type(classes) not in (list, tuple) or not all(type(c) is str for c in classes):
            raise DataError(f"classes must be an array of strings, got {classes!r}")
        if len(set(classes)) < len(classes):
            raise DataError(f"classes must not repeat a class, got {classes!r}")
        object.__setattr__(self, "classes", tuple(classes))
        for name in ("n_queries", "embed_dim", "frame_height", "frame_width", "version"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        require_str(self.video_id, "video_id")
        for name in ("n_queries", "embed_dim"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.frame_height <= 0 or self.frame_width <= 0:
            raise DataError(f"frame size must be positive, got "
                            f"{self.frame_height}x{self.frame_width}")
        if not classes:
            raise DataError("class set is empty")
        clash = sorted(self.extra.keys() & ({f.name for f in fields(self)} - {"extra"}))
        if clash:  # the writer puts extra's keys after the fields, over them
            raise DataError(f"extra header keys name header fields: {clash}")


@dataclass(frozen=True, slots=True)
class VideoStream:
    header: StreamHeader
    frames: tuple[FramePrediction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))


@dataclass(frozen=True, slots=True)
class GroundTruthStream:
    header: StreamHeader
    frames: tuple[GroundTruthFrame, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))


def rle_encode(bitmap: np.ndarray | Sequence[Sequence[int]]) -> RleMask:
    """Encode a HxW binary grid as row-major run lengths."""
    grid = np.asarray(bitmap)
    if grid.ndim != 2 or grid.shape[0] == 0 or grid.shape[1] == 0:
        raise DimensionError(f"expected a non-empty 2-D grid, got shape {grid.shape}")
    flat = (grid != 0).astype(np.int8).ravel()
    # run boundaries: indices where the value changes
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0] != 0:
        runs.insert(0, 0)
    return RleMask(*grid.shape, runs)


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode back to a HxW uint8 grid; exact inverse of rle_encode."""
    flat = np.zeros(mask.height * mask.width, dtype=np.uint8)
    for start, end in mask.foreground_intervals():
        flat[start:end] = 1
    return flat.reshape(mask.height, mask.width)


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; degenerate boxes score 0."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_overlaps(rows: Sequence[BBox], cols: Sequence[BBox]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """box_iou(row, col) and its union area for every pair, each rows x cols,
    and the corners (x1, y1, x2, y2) as rows x 1 x 4 and 1 x cols x 4 arrays.

    Each step is box_iou's operation in its order, so every entry equals the
    scalar one bitwise. For finite corners np.minimum/np.maximum differ from
    Python's min/max only in the sign of a zero, which reaches a result only
    as a +-0 overlap or a +-0 hull width. The clamp maps a +-0 overlap to
    +0.0, as max(0.0, iw) does. A hull np.maximum(hi, hi') - np.minimum(lo, lo')
    with a +-0 width is <= 0 (GIoU 1.0), or NaN on both sides when the other
    width is infinite. Emulating the builtins with np.where would be slower.
    """
    a = np.asarray([box.as_tuple() for box in rows], dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray([box.as_tuple() for box in cols], dtype=np.float64).reshape(1, -1, 4)
    with np.errstate(all="ignore"):  # overflow and inf - inf give inf and NaN, as in Python
        span = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
        span = np.where(span > 0.0, span, 0.0)
        inter = span[..., 0] * span[..., 1]
        a_area = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        b_area = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        union = a_area + b_area - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0.0))
    return iou, union, a, b


def intervals_overlap(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> int:
    """Pixels shared by two sorted lists of disjoint [start, end) intervals
    of pixel positions (>= 0).

    That is |a| + |b| - |a ∪ b|, taken in one sweep in start order: each
    interval adds the part the intervals before it already cover, which is
    [start, min(end, reach)) with reach the furthest end so far. The key
    sorts a mix of lists and tuples. All arithmetic is on ints, so exact.
    """
    inter = reach = 0
    for start, end in sorted(chain(a, b), key=itemgetter(0)):
        if start < reach:
            inter += (end if end < reach else reach) - start
        if end > reach:
            reach = end
    return inter


def mask_iou(a: RleMask, b: RleMask) -> float:
    """IoU of two masks, computed on the runs without decoding."""
    if (a.height, a.width) != (b.height, b.width):
        raise DimensionError(
            f"mask dimensions differ: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    inter = intervals_overlap(a.foreground_intervals(), b.foreground_intervals())
    union = a.area + b.area - inter
    if union == 0:
        return 0.0
    return inter / union


def similarity(a, b) -> float:
    """Overlap of two detections (anything with .box and .mask).

    Mask IoU when both carry a mask, box IoU otherwise.
    """
    if a.mask is not None and b.mask is not None:
        return mask_iou(a.mask, b.mask)
    return box_iou(a.box, b.box)


def frame_order(indices: Sequence[int]) -> Iterator[tuple[int, str]]:
    """(position, reason) per violation of: frame indices are >= 0 and strictly increasing."""
    for pos, index in enumerate(indices):
        if index < 0:
            yield pos, f"frame_index must be >= 0, got {index}"
        elif pos and index <= indices[pos - 1]:
            yield pos, f"frame_index {index} not strictly increasing (previous {indices[pos - 1]})"


def mask_size_error(mask: RleMask, height: int, width: int) -> str:
    """How the mask breaks the rule that a mask is the frame's size,
    height x width; "" when it keeps it."""
    if (mask.height, mask.width) == (height, width):
        return ""
    return f"mask is {mask.height}x{mask.width}, frame is {height}x{width}"


def _check_mask(header: StreamHeader, mask: RleMask | None, where: str, out: list[str]) -> None:
    if mask is not None:
        problem = mask_size_error(mask, header.frame_height, header.frame_width)
        if problem:
            out.append(f"{where}: {problem}")


def _check_slot(header: StreamHeader, where: str, slot: QuerySlot, out: list[str]) -> None:
    if len(slot.embedding) != header.embed_dim:
        out.append(f"{where}: embedding length {len(slot.embedding)} != C={header.embed_dim}")
    if len(slot.classes.probs) != len(header.classes):
        out.append(f"{where}: {len(slot.classes.probs)} class probs for "
                   f"{len(header.classes)} classes")
    _check_mask(header, slot.mask, where, out)


def validate_stream(stream: VideoStream) -> list[str]:
    """Check stream-level invariants; violations are data, not exceptions."""
    out = [reason for _, reason in frame_order([f.frame_index for f in stream.frames])]
    for frame in stream.frames:
        if len(frame.slots) != stream.header.n_queries:
            out.append(
                f"frame {frame.frame_index}: {len(frame.slots)} slots, "
                f"header declares N={stream.header.n_queries}"
            )
        for j, slot in enumerate(frame.slots):
            _check_slot(stream.header, f"frame {frame.frame_index} slot {j}", slot, out)
    return out


def validate_ground_truth(stream: GroundTruthStream) -> list[str]:
    """Ground-truth counterpart of validate_stream."""
    out = [reason for _, reason in frame_order([f.frame_index for f in stream.frames])]
    for frame in stream.frames:
        seen: set[int] = set()
        for obj in frame.objects:
            if obj.gt_track_id in seen:
                out.append(
                    f"gt frame {frame.frame_index}: duplicate gt_track_id "
                    f"{obj.gt_track_id}"
                )
            seen.add(obj.gt_track_id)
            if obj.class_label not in stream.header.classes:
                out.append(
                    f"gt frame {frame.frame_index}: unknown class "
                    f"{obj.class_label!r}"
                )
            _check_mask(stream.header, obj.mask,
                        f"gt frame {frame.frame_index}: object {obj.gt_track_id}", out)
    return out

