"""6D rotation encoding, Gram-Schmidt decoding, yaw extraction.

The 6D encoding is the first two columns of a rotation matrix; decoding
orthonormalizes them. All functions accept plain arrays or autodiff Tensors
and broadcast over leading axes ((..., 6) -> (..., 3, 3)).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ag
from .errors import DegenerateRotationError, InvalidRotationError

DEGENERACY_EPS = 1e-8
ORTHO_TOL = 1e-6


def sixd_to_matrix(r):
    """Decode (..., 6) into orthonormal right-handed (..., 3, 3).

    col1 = normalize(a); col2 = normalize(b - (b.col1)col1); col3 = col1 x col2.
    Raises DegenerateRotationError for near-zero or collinear halves.
    """
    a = r[..., 0:3]
    b = r[..., 3:6]
    na = ag.norm(a, axis=-1, keepdims=True)
    if np.any(ag.value(na) < DEGENERACY_EPS):
        raise DegenerateRotationError("first 6D half has near-zero norm")
    c1 = a / na
    d = ag.sum(b * c1, axis=-1, keepdims=True)
    u = b - d * c1
    nu = ag.norm(u, axis=-1, keepdims=True)
    if np.any(ag.value(nu) < DEGENERACY_EPS):
        raise DegenerateRotationError("6D halves are collinear")
    c2 = u / nu
    c3 = ag.cross3(c1, c2)
    return ag.stack([c1, c2, c3], axis=-1)


def safe_unit(v):
    """(unit, safe_norm) along the last axis; where the norm is degenerate,
    unit is zero and safe_norm is 1."""
    n = ag.norm(v, axis=-1, keepdims=True)
    small = ag.value(n) < DEGENERACY_EPS
    safe = ag.where(small, 1.0, n)
    unit = v / safe
    return ag.where(np.broadcast_to(small, ag.value(unit).shape), 0.0, unit), safe


def matrix_to_sixd(m):
    """First two columns of an orthonormal matrix as a (..., 6) vector."""
    md = ag.value(m)
    gram = md.mT @ md
    eye = np.eye(3)
    if np.any(np.abs(gram - eye) > ORTHO_TOL):
        raise InvalidRotationError("matrix is not orthonormal within tolerance")
    if np.any(np.linalg.det(md) < 0.0):
        raise InvalidRotationError("matrix is left-handed")
    return ag.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def yaw_of(r):
    """Global z Euler angle (extrinsic z-y-x) of the decoded matrix.

    Equals atan2(m10, m00). Since column 0 of the decoded matrix is
    normalize(a) and atan2 is scale-invariant, this reads the raw first half
    directly. Gimbal-degenerate inputs resolve to atan2's branch (never fail).
    """
    return ag.atan2(r[..., 1], r[..., 0])


def rotate_z(v, angle):
    """Rotate the xy components of (..., 2) or (..., 3) vectors by `angle`.

    angle broadcasts over the leading axes of v; the z component (when
    present) is untouched.
    """
    c = ag.cos(angle)
    s = ag.sin(angle)
    x = v[..., 0]
    y = v[..., 1]
    xr = c * x - s * y
    yr = s * x + c * y
    vd = ag.value(v)
    if vd.shape[-1] == 2:
        return ag.stack([xr, yr], axis=-1)
    if vd.shape[-1] == 3:
        return ag.stack([xr, yr, v[..., 2]], axis=-1)
    raise ValueError(f"rotate_z expects 2- or 3-vectors, got {vd.shape}")


def rotate_sixd_z(r, angle):
    """Rotate both 3-vector halves of a 6D encoding about world z.

    Equivalent to encoding R_z(angle) @ decode(r): Gram-Schmidt commutes with
    left-multiplication by a rotation, so rotating the raw halves is exact
    even for non-orthonormal encodings.
    """
    return ag.concatenate([rotate_z(r[..., 0:3], angle),
                           rotate_z(r[..., 3:6], angle)], axis=-1)


def rotation_z_matrix(angle):
    """Plain (3, 3) rotation about z for a scalar angle (no autodiff)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_matrix(axis, angle):
    """Rodrigues rotation for a unit axis and scalar angle (no autodiff)."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def identity_sixd():
    return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
