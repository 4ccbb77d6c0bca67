"""6D rotation encoding, Gram-Schmidt decoding, yaw extraction.

The 6D encoding is the first two columns of a rotation matrix; decoding
orthonormalizes them. Functions broadcast over leading axes ((..., 6) ->
(..., 3, 3)). The public functions take plain arrays and record nothing;
the fused ops in body and intention reuse the VJP helpers _decode,
_rotated and _project_out.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ag
from .errors import DegenerateRotationError, InvalidRotationError

DEGENERACY_EPS = 1e-8
ORTHO_TOL = 1e-6


def _cross(a, b, out=None):
    """a x b along the last axis, in np.cross's op order (same bits)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _dot_rows(a, b):
    """a . b along the last axis as stacked (1, k) @ (k, 1) matmuls, which
    give each row the bits of its 1-D a.dot(b)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _project_out(g, unit, norm):
    """VJP of v -> v / |v| at unit = v / |v|."""
    return (g - unit * (unit * g).sum(axis=-1, keepdims=True)) / norm


def _gram_schmidt(rd, m):
    """The first two decoded columns of (..., 6) encodings, written in place
    into m[..., :, 0] and m[..., :, 1]; returns (na, d, nu, short, collinear).

    na and nu are the norms of the first half and of the second half with
    its projection d removed. `short` and `collinear` ((..., 1) bool) mark the
    encodings sixd_to_matrix rejects; a short first half is divided by 1
    instead, so the other rows keep their bits and no division warns.
    """
    a = rd[..., 0:3]
    b = rd[..., 3:6]
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    short = na < DEGENERACY_EPS
    c1 = np.divide(a, np.where(short, 1.0, na) if short.any() else na,
                   out=m[..., :, 0])
    d = (b * c1).sum(axis=-1, keepdims=True)
    u = np.multiply(d, c1, out=m[..., :, 1])
    np.subtract(b, u, out=u)
    nu = np.sqrt((u * u).sum(axis=-1, keepdims=True))
    collinear = nu < DEGENERACY_EPS
    np.divide(u, np.where(collinear, 1.0, nu) if collinear.any() else nu, out=u)
    return na, d, nu, short, collinear


def degenerate_sixd(r) -> np.ndarray:
    """(...) bool: the (..., 6) encodings sixd_to_matrix rejects."""
    rd = ag.value(r)
    *_, short, collinear = _gram_schmidt(rd, np.empty(rd.shape[:-1] + (3, 3)))
    return (short | collinear)[..., 0]


def _decode(rd):
    """(m, vjp) for plain (..., 6) encodings: the decoded (..., 3, 3)
    matrices and the VJP g -> gradient of rd, shaped like rd.

    Raises DegenerateRotationError for near-zero or collinear halves.
    """
    b = rd[..., 3:6]
    # the columns are computed in place in the output, which keeps the
    # peak memory of a batched decode near the size of the result
    m = np.empty(rd.shape[:-1] + (3, 3))
    na, d, nu, short, collinear = _gram_schmidt(rd, m)
    if short.any():
        raise DegenerateRotationError("first 6D half has near-zero norm")
    if collinear.any():
        raise DegenerateRotationError("6D halves are collinear")
    c1 = m[..., :, 0]
    c2 = m[..., :, 1]
    _cross(c1, c2, out=m[..., :, 2])

    def vjp(g):
        g3 = g[..., :, 2]
        gc1 = g[..., :, 0] + _cross(c2, g3)
        gu = _project_out(g[..., :, 1] + _cross(g3, c1), c2, nu)
        gu_c1 = (gu * c1).sum(axis=-1, keepdims=True)
        gc1 = gc1 - d * gu - gu_c1 * b
        return np.concatenate([_project_out(gc1, c1, na), gu - gu_c1 * c1], axis=-1)

    return m, vjp


def sixd_to_matrix(r):
    """Decode plain (..., 6) into orthonormal right-handed (..., 3, 3).

    col1 = normalize(a); col2 = normalize(b - (b.col1)col1); col3 = col1 x col2.
    Raises DegenerateRotationError for near-zero or collinear halves.
    """
    return _decode(np.asarray(r, dtype=np.float64))[0]


def _safe_unit(vd):
    """(unit, safe norm, small) of plain vectors along the last axis: the
    norm (kept as length 1) is 1 and the unit vector zero where `small`
    marks a degenerate norm."""
    n = np.sqrt((vd * vd).sum(axis=-1, keepdims=True))
    small = n < DEGENERACY_EPS
    safe = np.where(small, 1.0, n)
    return np.where(small, 0.0, vd / safe), safe, small


def safe_unit(v):
    """Unit vector of plain vectors along the last axis; zero where the norm
    is degenerate."""
    return _safe_unit(np.asarray(v, dtype=np.float64))[0]


def matrix_to_sixd(m):
    """First two columns of an orthonormal matrix as a plain (..., 6) array;
    it records no tape node."""
    md = ag.value(m)
    gram = md.mT @ md
    eye = np.eye(3)
    if np.any(np.abs(gram - eye) > ORTHO_TOL):
        raise InvalidRotationError("matrix is not orthonormal within tolerance")
    if np.any(np.linalg.det(md) < 0.0):
        raise InvalidRotationError("matrix is left-handed")
    return np.concatenate([md[..., :, 0], md[..., :, 1]], axis=-1)


def yaw_of(r):
    """Global z Euler angle (extrinsic z-y-x) of the decoded matrix of plain
    (..., 6) encodings.

    Equals atan2(m10, m00). Since column 0 of the decoded matrix is
    normalize(a) and atan2 is scale-invariant, this reads the raw first half
    directly. Gimbal-degenerate inputs resolve to atan2's branch (never fail).
    """
    rd = np.asarray(r, dtype=np.float64)
    return np.arctan2(rd[..., 1], rd[..., 0])


def _rotate_xy(vd, c, s):
    """(c x - s y, s x + c y) on the first two components of the last axis;
    the rest is copied."""
    x = vd[..., 0]
    y = vd[..., 1]
    xr = c * x - s * y
    yr = s * x + c * y
    out = np.empty(xr.shape + vd.shape[-1:])
    out[..., 0] = xr
    out[..., 1] = yr
    out[..., 2:] = vd[..., 2:]
    return out


def _rotated(vd, c, s, angle_shape):
    """vd (..., k) rotated by (c, s) = (cos, sin) of an angle shaped
    `angle_shape`, and the VJP of that rotation."""
    out = _rotate_xy(vd, c, s)

    def vjp(g):
        ga = g[..., 1] * out[..., 0] - g[..., 0] * out[..., 1]
        return (ag.unbroadcast(_rotate_xy(g, c, -s), vd.shape),
                ag.unbroadcast(ga, np.shape(c)).reshape(angle_shape))

    return out, vjp


def rotation_z_matrix(angle):
    """Plain rotation about z: (3, 3) for a scalar angle, (..., 3, 3) for
    an array of angles (no autodiff)."""
    c, s = np.cos(angle), np.sin(angle)
    m = np.zeros(np.shape(angle) + (3, 3))
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    m[..., 2, 2] = 1.0
    return m


def axis_angle_matrix(axis, angle):
    """Rodrigues rotation about (3,) or (..., 3) axes (normalised here) by
    angles that broadcast against them: (3, 3) for one axis and a scalar
    angle, else (..., 3, 3) (no autodiff)."""
    axis = np.asarray(axis, dtype=np.float64)
    unit = axis / np.sqrt(_dot_rows(axis, axis))[..., None]
    x, y, z = unit[..., 0], unit[..., 1], unit[..., 2]
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    m = np.empty(np.broadcast_shapes(np.shape(angle), axis.shape[:-1]) + (3, 3))
    m[..., 0, 0] = c + x * x * cc
    m[..., 0, 1] = x * y * cc - z * s
    m[..., 0, 2] = x * z * cc + y * s
    m[..., 1, 0] = y * x * cc + z * s
    m[..., 1, 1] = c + y * y * cc
    m[..., 1, 2] = y * z * cc - x * s
    m[..., 2, 0] = z * x * cc - y * s
    m[..., 2, 1] = z * y * cc + x * s
    m[..., 2, 2] = c + z * z * cc
    return m


def identity_sixd():
    return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
