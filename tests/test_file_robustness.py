"""Every defreg reader fails cleanly on damaged copies of files defreg wrote.

Each example takes one file written by defreg's own writers, truncates it
at some byte or replaces one byte with a letter or a non-ASCII byte, and
reads it back. The reader must return a result or raise FileFormatError
(exit 4) or ValidationError (exit 2); any other exception would reach
the user as a traceback with exit 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.cli import _check_trace, main
from defreg.config import PipelineConfig, load_config, save_config
from defreg.consistency import read_corr_csv
from defreg.errors import FileFormatError, ValidationError, read_document
from defreg.nicp import read_warp_field
from defreg.pointcloud_io import read_ply, read_xyz
from defreg.scnet.model import ScNetConfig, ScNetModel
from defreg.scnet.params_io import load_params, save_params
from defreg.synth import SceneSpec, generate_scene, write_scene_bundle

_MICRO = ScNetConfig(feature_dim=8, num_blocks=1, units_per_block=1, num_groups=1)

READERS = {
    "source.ply": read_ply,
    "source.xyz": read_xyz,
    "corr.csv": read_corr_csv,
    "warp.txt": read_warp_field,
    "spec.json": lambda path: read_document(SceneSpec, path, "scene"),
    "config.json": load_config,
    "cost-trace.csv": _check_trace,
    "model.params": lambda path: load_params(path, ScNetModel(_MICRO)),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """name -> bytes of one file per reader, each written by defreg."""
    scene = tmp_path_factory.mktemp("scene")
    spec = SceneSpec(point_count=30, seed=3)
    write_scene_bundle(scene, spec, *generate_scene(spec))
    assert main(["register", "--corr", str(scene / "corr.csv"),
                 "--source", str(scene / "source.ply"), "--out", str(scene / "est.txt")]) == 0
    save_config(scene / "config.json", PipelineConfig())
    save_params(scene / "model.params", ScNetModel(_MICRO))
    ply_lines = (scene / "source.ply").read_bytes().split(b"end_header\n")
    (scene / "source.xyz").write_bytes(ply_lines[1])  # the PLY body is XYZ text
    files = {name: (scene / name).read_bytes() for name in READERS}
    for name, reader in READERS.items():
        reader(scene / name)  # the undamaged files read back
    return files


@settings(max_examples=400)
@given(
    name=st.sampled_from(sorted(READERS)),
    position=st.floats(0.0, 1.0, exclude_max=True),
    replacement=st.sampled_from([None, *b"aeinfxzAEINFXZ", 0x80, 0xE9, 0xFF]),
)
def test_damaged_files_raise_only_defreg_errors(written, tmp_path_factory, name, position,
                                                replacement):
    data = written[name]
    at = int(position * len(data))
    damaged = data[:at] if replacement is None else data[:at] + bytes([replacement]) + data[at + 1:]
    path = tmp_path_factory.getbasetemp() / f"damaged-{name}"
    path.write_bytes(damaged)
    try:
        READERS[name](path)
    except (FileFormatError, ValidationError):
        pass

