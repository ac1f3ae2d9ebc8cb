"""tools/digests.py hashes every run the same way twice and names them all."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
spec = importlib.util.spec_from_file_location("digests", TOOL)
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)

RUNS = (
    ["denoise-adaptive", "denoise-constant", "denoise-adaptive-alpha0"]
    + ["segment-adaptive", "segment-constant"]
    + ["segment-constant-2label", "segment-constant-odd"]
    + ["flow-%s-%dlevel-%s" % (reg, levels, kind)
       for reg in ("anisotropic", "isotropic")
       for levels in (1, 2)
       for kind in ("adaptive", "constant")]
    + ["flow-anisotropic-2level-odd"]
    + ["cli-%s%s" % (cmd, kind)
       for cmd in ("denoise", "segment", "flow")
       for kind in ("", "-scored")]
    + ["cli-synth-" + generator
       for generator in ("junction", "rectangles", "biased", "shifted-pair", "texture")]
)


def test_two_runs_agree_and_name_every_run():
    first = digests.digests(16, 2)
    assert sorted(first) == sorted(RUNS)
    assert all(len(d) == 64 for d in first.values())
    assert len(set(first.values())) == len(RUNS)
    assert digests.digests(16, 2) == first


def test_main_prints_json(capsys):
    assert digests.main(["digests.py", "16", "1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert sorted(printed) == sorted(RUNS)
    assert printed != digests.digests(16, 2)


def test_against_names_changed_and_unchanged_runs(capsys, tmp_path):
    old = digests.digests(16, 1)
    old["cli-flow"] = "0" * 64
    del old["segment-adaptive"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert digests.main(["digests.py", "16", "1", "--against", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    same = sorted(set(RUNS) - {"cli-flow", "segment-adaptive"})
    assert lines == (["changed (2):", "  cli-flow", "  segment-adaptive"]
                     + ["unchanged (%d):" % len(same)] + ["  " + name for name in same])


def test_against_exits_0_when_no_run_changed(capsys, tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(digests.digests(16, 1)))
    assert digests.main(["digests.py", "16", "1", "--against", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == (["changed (0):", "unchanged (%d):" % len(RUNS)]
                     + ["  " + name for name in sorted(RUNS)])
