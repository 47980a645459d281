"""Shoebox-room image-source lattice.

A rectangular room with planar walls turns one point source into a lattice
of mirrored copies. Along each axis the mirror sequence is indexed by a
signed integer j: the mirrored coordinate is 2*n*L + (-1 if odd else +1)*x
with j = 2*n - parity, and |j| counts the reflections on that axis. The
combined amplitude factor of an image is the product of per-wall reflection
coefficients raised to the number of hits on that wall.

Everything here is an immutable value; all operations are pure functions.
"""

import math
from dataclasses import dataclass

import numpy as np


def _vec3(v, name):
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class Room:
    """Shoebox geometry with per-wall amplitude reflection coefficients.

    dims: (Lx, Ly, Lz) in meters, all strictly positive.
    wall_reflection: 6 values in (0, 1] ordered (-x, +x, -y, +y, -z, +z).
    """

    dims: np.ndarray
    wall_reflection: np.ndarray

    def __post_init__(self):
        dims = _vec3(self.dims, "dims")
        walls = np.asarray(self.wall_reflection, dtype=np.float64)
        if walls.shape == ():
            walls = np.full(6, float(walls))
        if walls.shape != (6,):
            raise ValueError("wall_reflection needs 6 values (or one scalar)")
        if not np.all(dims > 0):
            raise ValueError("room dims must be strictly positive")
        if not (np.all(walls > 0) and np.all(walls <= 1)):
            raise ValueError("wall reflections must lie in (0, 1]")
        dims.flags.writeable = False
        walls.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "wall_reflection", walls)

    def contains(self, pos):
        """Whether pos lies strictly inside the walls."""
        p = np.asarray(pos, dtype=np.float64)
        return bool(np.all(p > 0) and np.all(p < self.dims))


@dataclass(frozen=True)
class MicPosition:
    """Receiver location, strictly inside the room when used."""

    pos: np.ndarray

    def __post_init__(self):
        p = _vec3(self.pos, "mic pos")
        p.flags.writeable = False
        object.__setattr__(self, "pos", p)

    def require_inside(self, room):
        if not room.contains(self.pos):
            raise ValueError("mic position must be strictly inside the room")


def as_mic(value):
    """Coerce a bare coordinate triple to MicPosition."""
    if isinstance(value, MicPosition):
        return value
    return MicPosition(pos=np.asarray(value, dtype=np.float64))


@dataclass(frozen=True, order=True)
class ImageSourceSpec:
    """One mirrored source.

    lattice: per-axis integer n, parity: per-axis coordinate flip, beta:
    combined reflection attenuation in (0, 1], order: total reflection count.
    Field order makes tuple comparison follow the canonical enumeration
    order (ascending order, then lexicographic lattice, then parity).
    """

    order: int
    lattice: tuple
    parity: tuple
    beta: float


def _axis_hits(j):
    """Walls hit along an axis for signed mirror indices j, elementwise.

    A ray reaching unfolded cell j crosses |j| wall planes, alternating
    starting with the wall on the side j points to. Returns (minus-wall
    hits, plus-wall hits).
    """
    a = np.abs(j)
    more, fewer = (a + 1) // 2, a // 2
    return np.where(j >= 0, fewer, more), np.where(j >= 0, more, fewer)


def enumerate_images(room, max_order):
    """All images with total reflection order <= max_order, each once.

    Ordering is deterministic: ascending order, then lexicographic lattice,
    then parity. max_order = 0 yields exactly the direct source.

    The mirror indices (jx, jy, jz) with |jx| + |jy| + |jz| <= max_order
    are built as arrays. beta is the product over the axes of
    w_minus ** h_minus * w_plus ** h_plus, taken from a table of each
    wall's powers and multiplied axis by axis in x, y, z order.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    walls = room.wall_reflection
    powers = np.array([[w**h for h in range(max_order + 1)] for w in walls])
    # (jx, jy) pairs, then every jz each pair leaves room for
    jx, jy = np.divmod(np.arange((2 * max_order + 1) ** 2), 2 * max_order + 1)
    jx, jy = jx - max_order, jy - max_order
    rem = max_order - np.abs(jx) - np.abs(jy)
    jx, jy, rem = jx[rem >= 0], jy[rem >= 0], rem[rem >= 0]
    count = 2 * rem + 1
    first = np.cumsum(count) - count
    jz = np.arange(count.sum()) - np.repeat(first + rem, count)
    js = np.stack([np.repeat(jx, count), np.repeat(jy, count), jz])
    parity = js % 2
    lattice = (js + parity) // 2
    order = np.abs(js).sum(axis=0)
    h_minus, h_plus = _axis_hits(js)
    axis = np.arange(3)[:, None]
    factor = powers[2 * axis, h_minus] * powers[2 * axis + 1, h_plus]
    beta = factor[0] * factor[1] * factor[2]
    rank = np.lexsort((*parity[::-1], *lattice[::-1], order))
    return [
        ImageSourceSpec(order=o, lattice=tuple(lat), parity=tuple(par), beta=b)
        for o, lat, par, b in zip(
            order[rank].tolist(),
            lattice[:, rank].T.tolist(),
            parity[:, rank].T.astype(bool).tolist(),
            beta[rank].tolist(),
        )
    ]


def image_position(spec, source_pos, room):
    """Mirrored source location for a given physical source position.

    Affine in source_pos: result[k] = 2*lattice[k]*dims[k] +- source_pos[k]
    (minus where parity flips the axis). A moving source therefore induces
    a moving image with the same temporal bandwidth.
    """
    src = np.asarray(source_pos, dtype=np.float64)
    lat = np.asarray(spec.lattice, dtype=np.float64)
    flip = np.where(np.asarray(spec.parity), -1.0, 1.0)
    return 2.0 * lat * room.dims + flip * src


def image_distance(spec, source_pos, mic, room):
    """Euclidean distance from the image of source_pos to the mic.

    Raw value; a coincident image yields 0.0 and is clamped downstream by
    the synthesis distance floor, not here.
    """
    return float(np.linalg.norm(image_position(spec, source_pos, room) - mic.pos))


def attenuation(beta, distance):
    """Spherical-spreading amplitude (beta / 4 pi) / d, elementwise.

    beta and distance are scalars or arrays that broadcast together. The
    spreading coefficient beta / 4 pi is formed first, so at d = 1 this is
    the coefficient the exact-row kernel divides by max(d, d_min) in place
    (_kernels.accumulate_rows): every gain in a render has these bits.
    """
    if np.any(np.asarray(distance) <= 0):
        raise ValueError("attenuation requires distance > 0 (clamp first)")
    return beta / (4.0 * np.pi) / distance


def as_arrays(specs, room):
    """Pack specs into arrays for the vectorized kernels.

    Returns (offset, sign, beta, order): offset (S,3) = 2*lattice*dims,
    sign (S,3) in {-1,+1}, beta (S,), order (S,) int64, in list order.
    """
    lat = np.array([s.lattice for s in specs], dtype=np.float64).reshape(-1, 3)
    par = np.array([s.parity for s in specs], dtype=bool).reshape(-1, 3)
    offset = 2.0 * lat * room.dims
    sign = np.where(par, -1.0, 1.0)
    beta = np.array([s.beta for s in specs], dtype=np.float64)
    order = np.array([s.order for s in specs], dtype=np.int64)
    return offset, sign, beta, order


def estimate_image_count(room, t60, c=343.0):
    """Number of images within acoustic reach c * t60, for budgeting.

    Uses the nominal source/mic placement at the room center, where the
    image lattice bijects onto integer triples m with path length
    sqrt(sum (m_k * L_k)^2); the result is the exact count of lattice
    points inside that ball (roughly (4 pi / 3) (c t60)^3 / volume).
    Intended for cost estimates, not for enumeration. The lattice is
    counted one x-row at a time, so memory grows as c * t60, not as its
    square. Raises ValueError unless t60 and c are finite and > 0.
    """
    for name, value in (("t60", t60), ("c", c)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    radius = c * t60
    lx, ly, lz = (float(d) for d in room.dims)
    r2 = radius * radius
    mx = np.arange(-int(radius // lx), int(radius // lx) + 1)
    my = np.arange(-int(radius // ly), int(radius // ly) + 1)
    y2 = (my * ly) ** 2
    total = 0
    for row in r2 - (mx * lx) ** 2:
        rem = np.maximum(row - y2, -1.0)
        nz = np.floor(np.sqrt(np.maximum(rem, 0.0)) / lz)
        total += int(np.where(rem >= 0.0, 2.0 * nz + 1.0, 0.0).sum())
    return total
