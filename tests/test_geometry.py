import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from reachgen import autodiff as ag
from reachgen import body, geometry as geo
from reachgen.errors import DegenerateRotationError, InvalidRotationError


def random_rotations(n, seed):
    """Independent oracle: orthonormal matrices via scipy."""
    return Rotation.random(n, random_state=seed).as_matrix()


def test_identity_sixd_decodes_to_identity():
    m = geo.sixd_to_matrix(np.array([1.0, 0, 0, 0, 1, 0]))
    np.testing.assert_allclose(m, np.eye(3), atol=1e-15)


def test_gram_schmidt_normalizes_scale():
    m = geo.sixd_to_matrix(np.array([2.0, 0, 0, 0, 3.0, 0]))
    np.testing.assert_allclose(m, np.eye(3), atol=1e-15)


def test_ninety_degree_z_rotation():
    m = geo.sixd_to_matrix(np.array([0.0, 1.0, 0, -1.0, 0, 0]))
    expected = geo.rotation_z_matrix(np.pi / 2)
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_matrix_to_sixd_trivial_cases():
    np.testing.assert_allclose(geo.matrix_to_sixd(np.eye(3)),
                               [1, 0, 0, 0, 1, 0], atol=1e-15)
    m = geo.rotation_z_matrix(np.pi / 2)
    np.testing.assert_allclose(geo.matrix_to_sixd(m), [0, 1, 0, -1, 0, 0], atol=1e-15)


def test_roundtrip_random_orthonormal_within_1e_9():
    ms = random_rotations(200, seed=7)
    back = geo.sixd_to_matrix(geo.matrix_to_sixd(ms))
    assert np.max(np.abs(back - ms)) < 1e-9


def test_decoded_matrix_is_orthonormal_right_handed():
    rng = np.random.default_rng(8)
    r = rng.normal(size=(500, 6))
    m = geo.sixd_to_matrix(r)
    dets = np.linalg.det(m)
    assert np.max(np.abs(dets - 1.0)) < 1e-9
    gram = m.mT @ m
    off = gram - np.eye(3)
    assert np.max(np.abs(off)) < 1e-9


def test_degenerate_sixd_raises():
    with pytest.raises(DegenerateRotationError):
        geo.sixd_to_matrix(np.array([0.0, 0, 0, 0, 1, 0]))
    with pytest.raises(DegenerateRotationError):
        geo.sixd_to_matrix(np.array([1.0, 0, 0, 2.0, 0, 0]))


def test_non_orthonormal_matrix_rejected():
    with pytest.raises(InvalidRotationError):
        geo.matrix_to_sixd(np.eye(3) * 1.1)
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidRotationError):
        geo.matrix_to_sixd(flipped)


def test_matrix_to_sixd_stack_matches_each_matrix():
    # the corpus converts whole joint tracks at once: a stack must give
    # each matrix's own encoding, bit for bit, at any leading shape
    ms = random_rotations(64, seed=13)
    stacked = geo.matrix_to_sixd(ms)
    assert stacked.shape == (64, 6)
    for m, six in zip(ms, stacked):
        np.testing.assert_array_equal(six, geo.matrix_to_sixd(m))
    np.testing.assert_array_equal(
        geo.matrix_to_sixd(ms.reshape(8, 8, 3, 3)).reshape(64, 6), stacked)


@pytest.mark.parametrize("at", [0, 37, 63])
def test_matrix_to_sixd_stack_rejects_one_bad_matrix(at):
    ms = random_rotations(64, seed=14)
    scaled = ms.copy()
    scaled[at] *= 1.1
    with pytest.raises(InvalidRotationError):
        geo.matrix_to_sixd(scaled)
    left_handed = ms.copy()
    left_handed[at] = left_handed[at] @ np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidRotationError):
        geo.matrix_to_sixd(left_handed)


def test_rotation_builders_stack_matches_each_angle():
    # an array of angles gives each scalar angle's matrix, bit for bit
    angles = np.random.default_rng(15).uniform(-4.0, 4.0, 50)
    axis = np.array([0.3, -0.5, 0.8])
    for build in (geo.rotation_z_matrix, lambda a: geo.axis_angle_matrix(axis, a)):
        stacked = build(angles)
        assert stacked.shape == (50, 3, 3)
        for a, m in zip(angles, stacked):
            np.testing.assert_array_equal(m, build(a))


def test_axis_angle_matrix_stacked_axes_match_each_axis():
    # (..., 3) axes with angles that broadcast against them give each
    # (axis, angle) pair's matrix, bit for bit
    rng = np.random.default_rng(16)
    axes = rng.normal(size=(4, 25, 3))
    angles = rng.uniform(-4.0, 4.0, (4, 25))
    stacked = geo.axis_angle_matrix(axes, angles)
    assert stacked.shape == (4, 25, 3, 3)
    one_angle = geo.axis_angle_matrix(axes, 0.7)
    for a, angle, m, m1 in zip(axes.reshape(-1, 3), angles.reshape(-1),
                               stacked.reshape(-1, 3, 3), one_angle.reshape(-1, 3, 3)):
        np.testing.assert_array_equal(m, geo.axis_angle_matrix(a, angle))
        np.testing.assert_array_equal(m1, geo.axis_angle_matrix(a, 0.7))
        # and the 1-D axis keeps the bits of its scalar formula
        x, y, z = a / np.sqrt(a.dot(a))
        c, s = np.cos(angle), np.sin(angle)
        assert m[0, 1] == x * y * (1.0 - c) - z * s and m[2, 2] == c + z * z * (1.0 - c)


def test_yaw_of_matches_scipy_euler():
    # extrinsic z-y-x: scipy lowercase "zyx" intrinsic reversed == extrinsic "xyz"...
    # use the documented formula directly against scipy's extrinsic decomposition
    ms = random_rotations(100, seed=9)
    r6 = geo.matrix_to_sixd(ms)
    yaw = geo.yaw_of(r6)
    expected = np.arctan2(ms[:, 1, 0], ms[:, 0, 0])
    np.testing.assert_allclose(yaw, expected, atol=1e-12)
    # and against scipy's ZYX euler z-angle
    scipy_yaw = Rotation.from_matrix(ms).as_euler("ZYX")[:, 0]
    np.testing.assert_allclose(yaw, scipy_yaw, atol=1e-9)


def test_yaw_trivial_cases():
    assert geo.yaw_of(geo.identity_sixd()) == 0.0
    r90 = geo.matrix_to_sixd(geo.rotation_z_matrix(np.pi / 2))
    np.testing.assert_allclose(geo.yaw_of(r90), np.pi / 2, atol=1e-15)
    rx = geo.matrix_to_sixd(geo.axis_angle_matrix([1, 0, 0], np.pi / 2))
    np.testing.assert_allclose(geo.yaw_of(rx), 0.0, atol=1e-15)


def test_rotate_pose_z_matches_matrix_product():
    # the root slot turns as R_z @ decode(root), for orthonormal and raw
    # encodings alike (Gram-Schmidt commutes with a left rotation); the
    # translation turns as R_z @ t and the parent-local joint slots are copied
    rng = np.random.default_rng(10)
    angle = 0.7
    rz = geo.rotation_z_matrix(angle)
    for root in (geo.matrix_to_sixd(random_rotations(50, seed=10)),
                 rng.normal(size=(50, 6))):
        pose = rng.normal(size=(50, body.pose_dim(12)))
        pose[:, 3:9] = root
        rotated = body.rotate_pose_z(pose, angle)
        np.testing.assert_allclose(rotated[:, 0:3], pose[:, 0:3] @ rz.T, atol=1e-12)
        np.testing.assert_allclose(geo.sixd_to_matrix(rotated[:, 3:9]),
                                   rz @ geo.sixd_to_matrix(root), atol=1e-12)
        np.testing.assert_array_equal(rotated[:, 9:], pose[:, 9:])


# ---------------------------------------------------------------- fused ops
#
# The 6D decode, the yaw and the pose's z turn each replaced an elementary-op
# composition. The reference below is that composition, written as the numpy
# calls those ops ran without a tape, in the same order; the fused forward
# must match it bit for bit so that tape-free rollouts keep their bytes. The
# hand-written VJPs the fused ops of body and intention build on are checked
# against central differences.

def ref_sixd_to_matrix(r):
    a, b = r[..., 0:3], r[..., 3:6]
    c1 = a / np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    u = b - np.sum(b * c1, axis=-1, keepdims=True) * c1
    c2 = u / np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
    return np.stack([c1, c2, np.cross(c1, c2)], axis=-1)


def ref_rotate_z(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    x, y = v[..., 0], v[..., 1]
    parts = [c * x - s * y, s * x + c * y]
    if np.shape(v)[-1] == 3:
        parts.append(v[..., 2])
    return np.stack(parts, axis=-1)


def ref_rotate_sixd_z(r, angle):
    return ag.concatenate([ref_rotate_z(r[..., 0:3], angle),
                           ref_rotate_z(r[..., 3:6], angle)], axis=-1)


def ref_rotate_pose_z(pose, angle):
    # rotate_pose_z as the per-field composition it replaced
    return ag.concatenate([ref_rotate_z(pose[..., 0:3], angle),
                           ref_rotate_sixd_z(pose[..., 3:9], angle),
                           pose[..., 9:]], axis=-1)


def ref_safe_unit(v):
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    small = n < geo.DEGENERACY_EPS
    safe = np.where(small, 1.0, n)
    unit = v / safe
    return np.where(np.broadcast_to(small, unit.shape), 0.0, unit)


def bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def degenerate_rows(v):
    """Zero some rows and shrink others below the degeneracy threshold."""
    v = v.copy()
    v[0] = 0.0
    v[1] *= 1e-10
    return v


def test_fused_forward_bits_match_elementary_composition():
    rng = np.random.default_rng(30)
    for shape in ((6,), (4, 6), (3, 5, 6)):
        r = rng.normal(size=shape)
        assert bits(geo.sixd_to_matrix(r)) == bits(ref_sixd_to_matrix(r))
        assert bits(geo.yaw_of(r)) == bits(np.arctan2(r[..., 1], r[..., 0]))
    for lead in ((), (4,), (3, 5)):
        pose = rng.normal(size=lead + (body.pose_dim(12),))
        angle = rng.uniform(-np.pi, np.pi, size=lead)
        assert bits(body.rotate_pose_z(pose, angle)) == bits(ref_rotate_pose_z(pose, angle))
        assert bits(body.rotate_pose_z(pose, -0.6)) == bits(ref_rotate_pose_z(pose, -0.6))
    v = degenerate_rows(rng.normal(size=(3, 5, 2)))
    assert bits(geo.safe_unit(v)) == bits(ref_safe_unit(v))


def check_vjp(helper, inputs, h=1e-6, rtol=1e-5, atol=1e-8):
    """helper(*inputs) returns (out, vjp) and vjp(g) one gradient per input;
    each matches central differences of a random projection of out."""
    rng = np.random.default_rng(31)
    out, vjp = helper(*inputs)
    weights = rng.normal(size=out.shape)
    grads = vjp(weights)
    for i, x0 in enumerate(inputs):
        def loss(x, i=i):
            args = list(inputs)
            args[i] = x
            return np.sum(helper(*args)[0] * weights)
        fd = ag.finite_difference_gradient(loss, np.array(x0, dtype=np.float64), h=h)
        np.testing.assert_allclose(grads[i], fd, rtol=rtol, atol=atol)


def decode(r):
    m, vjp = geo._decode(r)
    return m, lambda g: (vjp(g),)


def test_fused_op_gradients_batched():
    """The plain VJP helpers the fused ops share, on batched inputs: the 6D
    decode, and the z turn of poses by per-row angles or one angle."""
    rng = np.random.default_rng(32)
    check_vjp(decode, [rng.normal(size=(3, 4, 6))])
    pose = rng.normal(size=(3, 4, body.pose_dim(2)))
    check_vjp(body._turned_pose, [pose, rng.uniform(-np.pi, np.pi, size=(3, 4))])
    check_vjp(body._turned_pose, [pose, np.array(0.4)])
