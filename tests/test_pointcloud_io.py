"""PLY and XYZ readers/writers: round trips and strict rejections."""

import numpy as np
import pytest

from defreg.errors import FileFormatError
from defreg.geometry import PointCloud
from defreg.pointcloud_io import read_ply, read_xyz, write_ply


def _cloud(seed=0, n=17):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))


def test_ply_round_trip_exact(tmp_path):
    cloud = _cloud()
    path = tmp_path / "a.ply"
    write_ply(path, cloud)
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, cloud.points)


def test_ply_rewrite_is_byte_identical(tmp_path):
    cloud = _cloud(3)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    write_ply(p1, cloud)
    write_ply(p2, read_ply(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_ply_extra_scalar_property_is_skipped(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n"
        "1 2 3 9\n4 5 6 9\n"
    )
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nope\n", "magic"),
        ("ply\nformat binary_little_endian 1.0\nend_header\n", "ASCII"),
        ("ply\nformat ascii 1.0\nelement face 1\nend_header\n", "unsupported element"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n", "truncated"),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float a\nproperty float b\nproperty float c\nend_header\n1 2 3\n",
            "x/y/z",
        ),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2\n",
            "fields",
        ),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\nnan 0 0\n",
            "non-finite",
        ),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property uchar x\nproperty float y\nproperty float z\nend_header\n1 2 3\n",
            "non-float",
        ),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2 spam\n",
            "bad.ply:8: non-numeric value 'spam'",
        ),
        (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\xe9\n",
            "bad.ply:8: non-ASCII byte",
        ),
        ("ply\nformat ascii 1.0\nelement vertex many\nend_header\n", "bad.ply:3: bad vertex count"),
        (
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n",
            "bad.ply:3: vertex element declares no vertices",
        ),
        ("ply\nformat ascii 1.0\nelement\nend_header\n", "bad.ply:3: element line"),
        (
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n",
            "2 vertices declared, 1 present",
        ),
    ],
)
def test_ply_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.ply"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FileFormatError, match=fragment):
        read_ply(path)


def test_xyz_round_trip_exact(tmp_path):
    cloud = _cloud(5)
    path = tmp_path / "a.xyz"
    path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in cloud.points.tolist()))
    np.testing.assert_array_equal(read_xyz(path).points, cloud.points)


def test_xyz_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n\n0.5 0 0\n# middle\n1 2 3\n")
    np.testing.assert_array_equal(read_xyz(path).points, [[0.5, 0, 0], [1, 2, 3]])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2\n", "expected 3 fields"),
        ("1 2 spam\n", "bad.xyz:1: non-numeric value 'spam'"),
        ("# only a comment\n", "no points"),
        ("inf 0 0\n", "non-finite"),
        ("0 0 0\n1 2 \xe93\n", "bad.xyz:2: non-ASCII byte"),
    ],
)
def test_xyz_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.xyz"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FileFormatError, match=fragment):
        read_xyz(path)
