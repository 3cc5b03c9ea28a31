"""Command-line interface: exit codes, JSON reports, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riemann_syzygy import catalog, cli
from riemann_syzygy.curvature import riemann_to_json, zeros
from riemann_syzygy.decomp import reconstruct
from riemann_syzygy.gen import GenConfig, random_fblocks, random_fblocks_stream
from riemann_syzygy.ranklab import sample_matrix


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thooft_check(capsys):
    code, out, _ = run(["thooft-check"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True


def test_module_entry_point_warns_nothing():
    """``python -m riemann_syzygy.cli`` runs without a RuntimeWarning."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "riemann_syzygy.cli", "thooft-check"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_ok"] is True


def test_generate_deterministic(capsys):
    code, out1, _ = run(["generate", "--seed", "5", "--samples", "3"], capsys)
    assert code == 0
    code, out2, _ = run(["generate", "--seed", "5", "--samples", "3"], capsys)
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == "riemann-syzygy/1"
    assert len(data["samples"]) == 3


def test_generate_requires_seed(capsys):
    code, _, err = run(["generate", "--samples", "1"], capsys)
    assert code == 2
    assert "seed" in err


def test_decompose_reconstruct_round_trip(tmp_path, capsys):
    fb = random_fblocks(11)
    t = reconstruct(fb)
    path = tmp_path / "riem.json"
    path.write_text(riemann_to_json(t))
    code, out, _ = run(["decompose", str(path)], capsys)
    assert code == 0
    blocks_path = tmp_path / "blocks.json"
    blocks_path.write_text(out)
    code, out2, _ = run(["reconstruct", str(blocks_path)], capsys)
    assert code == 0
    assert json.loads(out2) == json.loads(riemann_to_json(t))


def test_decompose_invalid_tensor_exit_2(tmp_path, capsys):
    bad = zeros()
    bad[0, 1, 2, 3] = 1
    bad[1, 0, 2, 3] = -1
    bad[0, 1, 3, 2] = -1
    bad[1, 0, 3, 2] = 1
    path = tmp_path / "bad.json"
    path.write_text(riemann_to_json(bad))
    code, _, err = run(["decompose", str(path)], capsys)
    assert code == 2
    assert "Pair symmetry" in err


def test_decompose_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(["decompose", str(path)], capsys)
    assert code == 2
    assert "error" in err


# the sectional curvature 5 in the 1-2 plane, a valid curvature tensor
_PLANE_12 = [[1, 2, 1, 2, 5], [2, 1, 2, 1, 5], [1, 2, 2, 1, -5], [2, 1, 1, 2, -5]]


@pytest.mark.parametrize("data, reason", [
    ({"schema": "riemann-syzygy/1", "format": "sparse",
      "entries": _PLANE_12 + [[1, 2, 1, 2, 5]]}, "duplicate"),
    ({"schema": "nonsense", "format": "sparse", "entries": _PLANE_12},
     "nonsense"),
])
def test_decompose_malformed_tensor_exit_2(tmp_path, capsys, data, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["decompose", str(path)], capsys)
    assert code == 2
    assert reason in err and not out


def test_verify_all_pass(capsys):
    code, out, _ = run(
        ["verify", "--set", "quadratic", "--samples", "5", "--seed", "7"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_verify_byte_identical(capsys):
    argv = ["verify", "--set", "cubic", "--samples", "4", "--seed", "7"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_verify_names_selection(capsys):
    code, out, _ = run(
        ["verify", "--names", "gauss_bonnet", "--samples", "5",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert [r["name"] for r in data["results"]] == ["gauss_bonnet"]


def test_verify_unknown_name_exit_2(capsys):
    code, _, err = run(
        ["verify", "--names", "nope", "--seed", "7"], capsys
    )
    assert code == 2
    assert "nope" in err


def test_rank_expect_match(capsys):
    code, out, _ = run(
        ["rank", "--catalog", "quadratic", "--samples", "20", "--seed", "3",
         "--expect", "4"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4


def test_rank_expect_mismatch_exit_1(capsys):
    code, _, _ = run(
        ["rank", "--catalog", "quadratic", "--samples", "20", "--seed", "3",
         "--expect", "5"],
        capsys,
    )
    assert code == 1


def test_rank_alias_catalog(capsys):
    code, out, _ = run(
        ["rank", "--catalog", "quartic_scalars", "--samples", "60",
         "--seed", "3", "--expect", "13"],
        capsys,
    )
    assert code == 0


def test_export_import_samples_reproduce(tmp_path, capsys):
    exported = tmp_path / "samples.json"
    argv = ["rank", "--catalog", "quadratic", "--samples", "20",
            "--seed", "3", "--export-samples", str(exported)]
    _, out1, _ = run(argv, capsys)
    code, out2, _ = run(
        ["rank", "--catalog", "quadratic",
         "--import-samples", str(exported)],
        capsys,
    )
    assert code == 0
    assert json.loads(out1)["rank"] == json.loads(out2)["rank"]


def test_invariants_table(capsys):
    code, out, _ = run(
        ["invariants", "--catalog", "quadratic", "--seed", "5",
         "--format", "table"],
        capsys,
    )
    assert code == 0
    assert "R2 = " in out


def test_discover_reports_nullspace(capsys):
    code, out, _ = run(
        ["discover", "--catalog", "quadratic", "--seed", "12345"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["nullspace"] == [[4, -16, 4, -1, 0]]


def test_verify_zero_samples_exit_2(capsys):
    code, out, err = run(
        ["verify", "--seed", "1", "--samples", "0", "--set", "einstein"],
        capsys,
    )
    assert code == 2 and not out
    assert "n_samples" in err


def test_rank_zero_samples_exit_2(capsys):
    code, out, err = run(
        ["rank", "--catalog", "cubic", "--samples", "0", "--seed", "1"],
        capsys,
    )
    assert code == 2 and not out
    assert "at least 2 samples" in err


def test_invariants_tensor_catalog_exit_2(capsys):
    code, out, err = run(
        ["invariants", "--catalog", "cubic_rank2", "--seed", "1"], capsys
    )
    assert code == 2 and not out
    assert "tensor-valued" in err and "rank --catalog cubic_rank2" in err


def test_generate_reconstruct_decompose_chain(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    tensor = tmp_path / "tensor.json"
    assert run(["generate", "--seed", "7", "--samples", "1",
                "--out", str(blocks)], capsys)[0] == 0
    assert run(["reconstruct", str(blocks), "--out", str(tensor)],
               capsys)[0] == 0
    code, out, _ = run(["decompose", str(tensor)], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(blocks.read_text())["samples"][0]
    # invariants reads the same envelope
    code, out, _ = run(["invariants", "--catalog", "quadratic", str(blocks)],
                       capsys)
    assert code == 0 and "R2" in json.loads(out)["values"]
    # an envelope with more than one sample is ambiguous
    run(["generate", "--seed", "7", "--samples", "2", "--out", str(blocks)],
        capsys)
    code, _, err = run(["reconstruct", str(blocks)], capsys)
    assert code == 2
    assert "2 samples" in err


def test_rank_import_confirms_null_vectors(tmp_path, capsys):
    """Imported samples get the fresh-batch confirmation of seeded ones."""
    samples = tmp_path / "einstein.json"
    run(["generate", "--seed", "4", "--samples", "30", "--einstein",
         "--out", str(samples)], capsys)
    entries = catalog.catalog("cubic")
    for flags, einstein in (([], False), (["--einstein"], True)):
        code, out, _ = run(["rank", "--catalog", "cubic",
                            "--import-samples", str(samples)] + flags, capsys)
        assert code == 0
        null = json.loads(out)["nullspace"]
        fresh = sample_matrix(entries, random_fblocks_stream(
            2024, 10, GenConfig(einstein=einstein)))
        for vec in null:
            assert all(sum(c * x for c, x in zip(vec, row)) == 0
                       for row in fresh)
        # Einstein-only relations are not identities of the general domain,
        # but on the Einstein domain they are confirmed and reported
        assert bool(null) == einstein
