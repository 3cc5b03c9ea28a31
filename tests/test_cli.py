"""Command-line interface: exit codes, JSON reports, reproducibility."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from riemann_syzygy import catalog, cli, ranklab, relations
from riemann_syzygy.curvature import dumps, riemann_to_json, zeros
from riemann_syzygy.decomp import FBlocks, fblocks_to_json, reconstruct
from riemann_syzygy.gen import GenConfig, random_fblocks, random_fblocks_stream
from riemann_syzygy.ranklab import rank_report, sample_matrix


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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_generate_needs_a_sample_exit_2(capsys, n):
    code, out, err = run(["generate", "--seed", "1", "--samples", n], capsys)
    assert code == 2 and not out
    assert "--samples must be at least 1" in err


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


@pytest.mark.parametrize("fmt", ["sparse", "dense"])
def test_fraction_blocks_round_trip_byte_identical(tmp_path, capsys, fmt):
    fb = random_fblocks(11)
    fb = FBlocks(Ap=fb.Ap * Fraction(1, 3), B=fb.B * Fraction(-2, 7),
                 Am=fb.Am * Fraction(1, 3))
    text = fblocks_to_json(fb)
    blocks, tensor = tmp_path / "blocks.json", tmp_path / "tensor.json"
    blocks.write_text(text)
    code, _, _ = run(["reconstruct", str(blocks), "--out", str(tensor),
                      "--tensor-format", fmt], capsys)
    assert code == 0
    # both files hold "p/q" strings
    assert all(re.search(r'"-?[0-9]+/[0-9]+"', t)
               for t in (text, tensor.read_text()))
    code, out, _ = run(["decompose", str(tensor)], capsys)
    assert code == 0
    assert out == text


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
    ({"schema": "riemann-syzygy/1", "format": "sparse",
      "entries": [[True, 2, 1, 2, 5]] + _PLANE_12[1:]}, "out of range 1..4"),
    ({"schema": "riemann-syzygy/1", "format": "sparse",
      "entries": [[1, 2, 1, 2, "1_0"]] + _PLANE_12[1:]}, "'1_0'"),
    ({"schema": "riemann-syzygy/1", "format": "sparse"},
     "sparse entries must be a list, got None"),
    ({"schema": "riemann-syzygy/1", "format": "sparse", "entries": [7]},
     "sparse entry must be [a,b,c,d,value]: 7"),
])
def test_decompose_malformed_tensor_exit_2(tmp_path, capsys, data, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["decompose", str(path)], capsys)
    assert code == 2
    assert reason in err and not out


_ZERO3 = [[0] * 3] * 3


@pytest.mark.parametrize("argv, data, reason", [
    (["reconstruct"],
     {"schema": "nonsense", "Ap": _ZERO3, "B": _ZERO3, "Am": _ZERO3},
     "nonsense"),
    (["invariants", "--catalog", "quadratic"],
     {"schema": "riemann-syzygy/1", "samples": []}, "holds 0 samples"),
    (["reconstruct"], {"samples": 5}, "samples must be a list, got int"),
    (["rank", "--catalog", "quadratic", "--seed", "3", "--import-samples"],
     {"samples": {"Ap": 1}}, "samples must be a list, got dict"),
    (["reconstruct"], {"samples": "Ap"}, "samples must be a list, got str"),
])
def test_malformed_blocks_exit_2(tmp_path, capsys, argv, data, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2 and not out
    assert reason in err



@pytest.mark.parametrize("argv", [
    ["decompose"],
    ["reconstruct"],
    ["invariants", "--catalog", "quadratic"],
    ["rank", "--catalog", "quadratic", "--seed", "3", "--import-samples"],
])
def test_undecodable_input_names_the_file_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "h.json"
    path.write_bytes(b"\xff{}")
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2 and not out
    assert err == (f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")

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
    # --names with no name is a usage error, not "every relation"
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--seed", "1", "--names"])
    assert exc.value.code == 2
    assert "--names: expected at least one argument" in capsys.readouterr().err


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


def test_rank_removed_alias_exit_2(capsys):
    code, out, err = run(
        ["rank", "--catalog", "quartic_scalars", "--seed", "3"], capsys
    )
    assert code == 2 and not out
    assert err == ("error: unknown catalog 'quartic_scalars'; available: "
                   + ", ".join(catalog.catalog_names()) + "\n")


def test_export_import_samples_reproduce(tmp_path, capsys):
    """``generate`` writes the samples that a seeded ``rank`` ranks."""
    exported = tmp_path / "samples.json"
    assert run(["generate", "--seed", "3", "--samples", "20",
                "--out", str(exported)], capsys)[0] == 0
    rank = ["rank", "--catalog", "quadratic", "--seed", "3"]
    code, out, _ = run(rank + ["--samples", "20"], capsys)
    assert code == 0
    seeded = json.loads(out)
    code, imported, _ = run(
        ["rank", "--catalog", "quadratic", "--seed", "4",
         "--import-samples", str(exported)],
        capsys,
    )
    assert code == 0 and seeded["nullspace"]
    for key in ("rank", "pivots", "nullspace", "n_samples", "stable"):
        assert json.loads(imported)[key] == seeded[key], key
    # with the same seed, confirmation too draws the same batch
    assert run(rank + ["--import-samples", str(exported)], capsys) == (0, out, "")


def test_rank_import_without_seed_exit_2(tmp_path, capsys):
    # the seed also draws the batch that confirms the null vectors
    samples = tmp_path / "samples.json"
    run(["generate", "--seed", "3", "--samples", "20", "--out", str(samples)],
        capsys)
    code, out, err = run(["rank", "--catalog", "quadratic",
                          "--import-samples", str(samples)], capsys)
    assert code == 2 and not out
    assert err == ("error: --seed is required (it also draws the batch that "
                   "confirms the null vectors)\n")


@pytest.mark.parametrize("argv", [
    ["rank", "--catalog", "quadratic", "--seed", "3", "--export-samples"],
    ["invariants", "--catalog", "quadratic", "--seed", "3",
     "--export-samples"],
    ["invariants", "--catalog", "quadratic", "--import-samples"],
])
def test_removed_sample_options_are_usage_errors(tmp_path, capsys, argv):
    # generate writes samples and rank --import-samples or INPUT reads them
    path = tmp_path / "samples.json"
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + [str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-1] in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["verify", "--set", "quadratic", "--samples", "1"],
    ["rank", "--catalog", "quadratic"],
    ["invariants", "--catalog", "quadratic"],
])
def test_sampling_commands_require_seed(capsys, argv):
    # no command falls back to a seed from the operating system
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.startswith("error: --seed is required (")


@pytest.mark.parametrize("argv", [
    ["reconstruct", "{blocks}"],
    ["verify", "--set", "quadratic", "--samples", "1", "--seed", "1",
     "--format", "table"],
])
def test_unwritable_out_exit_2(tmp_path, capsys, argv):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(fblocks_to_json(random_fblocks(11)))
    target = tmp_path / "missing" / "report.json"
    argv = [a.format(blocks=blocks) for a in argv] + ["--out", str(target)]
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "1"], ["decompose"], ["reconstruct"],
])
def test_format_only_where_there_is_a_table(capsys, argv):
    # generate, decompose and reconstruct write JSON only
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--format", "table"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_invariants_table(capsys):
    code, out, _ = run(
        ["invariants", "--catalog", "quadratic", "--seed", "5",
         "--format", "table"],
        capsys,
    )
    assert code == 0
    assert "R2 = " in out


def test_invariants_calls_no_ranklab_function(capsys, monkeypatch):
    """``invariants`` evaluates its one sample in the sample's own contexts,
    as ``verify`` does, not as a batch of one."""
    argv = ["invariants", "--catalog", "quartic", "--seed", "4"]
    want = run(argv, capsys)
    assert want[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("invariants called ranklab")

    for name, fn in vars(ranklab).items():
        if inspect.isfunction(fn) and fn.__module__ == ranklab.__name__:
            monkeypatch.setattr(ranklab, name, refuse)
    assert run(argv, capsys) == want


def test_rank_reports_nullspace(capsys):
    code, out, _ = run(
        ["rank", "--catalog", "quadratic", "--seed", "12345"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["nullspace"] == [[4, -16, 4, -1, 0]]


def test_removed_discover_command_is_a_usage_error(capsys):
    # `rank` reports the confirmed null vectors; the old alias is gone
    with pytest.raises(SystemExit) as exc:
        cli.run(["discover", "--catalog", "quadratic", "--seed", "11"])
    assert exc.value.code == 2
    assert "invalid choice: 'discover'" in capsys.readouterr().err


def test_verify_zero_samples_exit_2(capsys):
    code, out, err = run(
        ["verify", "--seed", "1", "--samples", "0", "--set", "einstein"],
        capsys,
    )
    assert code == 2 and not out
    assert "n_samples" in err


def test_rank_warns_when_under_sampled(capsys):
    # 5 rows for 26 columns: the rank cannot reach 26, so stderr says so
    argv = ["rank", "--catalog", "quartic", "--seed", "3", "--samples", "5"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ("warning: 5 sample rows for 26 columns; "
                   "the rank cannot reach full column rank\n")
    report = rank_report(catalog.catalog("quartic"), seed=3, n_samples=5,
                         catalog_name="quartic")
    assert out == dumps(report.to_dict())
    _, _, err = run(argv[:-1] + ["26"], capsys)
    assert err == ""


def test_rank_zero_samples_exit_2(capsys):
    code, out, err = run(
        ["rank", "--catalog", "cubic", "--samples", "0", "--seed", "1"],
        capsys,
    )
    assert code == 2 and not out
    assert "at least 2 samples" in err


def test_rank_missing_representation_exit_2(capsys):
    # no quintic entry has a tensor form: the rank of its matrix forms
    # must not be reported in its place
    code, out, err = run(
        ["rank", "--catalog", "quintic", "--representation", "tensor",
         "--seed", "1"],
        capsys,
    )
    assert code == 2 and not out
    assert "'S5_1'" in err and "'tensor'" in err


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


def _vanish(vec, rows):
    return all(sum(c * x for c, x in zip(vec, row)) == 0 for row in rows)


def test_rank_import_confirms_null_vectors(tmp_path, capsys):
    """Imported samples get the fresh-batch confirmation of seeded ones, on
    the domain their file records and the flags repeat."""
    entries = catalog.catalog("cubic")
    fresh = {
        einstein: sample_matrix(entries, random_fblocks_stream(
            2024, 10, GenConfig(einstein=einstein)))
        for einstein in (False, True)
    }
    null = {}
    for flags, einstein in (([], False), (["--einstein"], True)):
        samples = tmp_path / f"einstein_{einstein}.json"
        run(["generate", "--seed", "4", "--samples", "30",
             "--out", str(samples)] + flags, capsys)
        code, out, _ = run(["rank", "--catalog", "cubic", "--seed", "4",
                            "--import-samples", str(samples)] + flags, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"] == {"bound": 9, "einstein": einstein}
        null[einstein] = report["nullspace"]
        assert null[einstein]
        assert all(_vanish(vec, fresh[einstein]) for vec in null[einstein])
    # the Einstein domain has relations that are not general identities
    assert len(null[True]) > len(null[False])
    assert not all(_vanish(vec, fresh[False]) for vec in null[True])


def test_rank_import_config_mismatch_exit_2(tmp_path, capsys):
    """An envelope records the config it was drawn with; ranking it under
    other flags exits 2 and names both configs."""
    samples = tmp_path / "einstein.json"
    run(["generate", "--seed", "4", "--samples", "30", "--einstein",
         "--out", str(samples)], capsys)
    rank = ["rank", "--catalog", "cubic", "--seed", "4",
            "--import-samples", str(samples)]
    for flags, wanted in (
        ([], '{"bound": 9, "einstein": false}'),
        (["--einstein", "--bound", "4"], '{"bound": 4, "einstein": true}'),
    ):
        code, out, err = run(rank + flags, capsys)
        assert code == 2 and not out
        assert '{"bound": 9, "einstein": true}' in err and wanted in err
    assert run(rank + ["--einstein"], capsys)[0] == 0
    # an envelope without a config, or a bare blocks object, states none;
    # its Einstein samples are still refused under a general config, whose
    # confirmation batch would drop their null vectors
    data = json.loads(samples.read_text())
    del data["config"]
    samples.write_text(json.dumps(data))
    code, out, err = run(rank, capsys)
    assert code == 2 and not out
    assert "every given sample is Einstein" in err
    assert run(rank + ["--einstein"], capsys)[0] == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data["samples"][0]))
    code, out, err = run(["rank", "--catalog", "cubic", "--seed", "4",
                          "--import-samples", str(bare)], capsys)
    assert code == 2 and "at least 2 samples" in err


def test_invariants_input_checks_its_flags(tmp_path, capsys):
    """``invariants INPUT`` takes no --seed, and refuses an envelope drawn
    with other --bound or --einstein, as ``rank --import-samples`` does."""
    blocks = tmp_path / "one.json"
    run(["generate", "--seed", "7", "--out", str(blocks)], capsys)
    invariants = ["invariants", "--catalog", "quadratic", str(blocks)]
    code, out, err = run(invariants + ["--seed", "7"], capsys)
    assert code == 2 and not out
    assert err == "error: give a blocks file or --seed, not both\n"
    code, out, err = run(invariants + ["--einstein", "--bound", "2"], capsys)
    assert code == 2 and not out
    assert ('{"bound": 9, "einstein": false}' in err
            and '{"bound": 2, "einstein": true}' in err)
    assert run(invariants + ["--bound", "9"], capsys)[0] == 0


def test_one_parser_serves_many_calls(tmp_path, capsys):
    """Calls in one process share one parser, and no call leaves a trace in
    it for the next: options left out take their defaults again."""
    cli._build_parser.cache_clear()
    rank = ["rank", "--catalog", "quadratic", "--samples", "20", "--seed", "3"]
    assert run(rank + ["--expect", "99"], capsys)[0] == 1
    code, rank_out, _ = run(rank, capsys)
    assert code == 0 and json.loads(rank_out)["rank"] == 4

    verify = ["verify", "--samples", "2", "--seed", "7"]
    code, out, _ = run(verify + ["--names", "gauss_bonnet"], capsys)
    assert code == 0
    assert [r["name"] for r in json.loads(out)["results"]] == ["gauss_bonnet"]
    code, out, _ = run(verify + ["--set", "einstein"], capsys)
    einstein = [r.name for r in relations.load_relations()
                if r.domain == "einstein"]
    assert code == 0 and len(einstein) == 26
    assert [r["name"] for r in json.loads(out)["results"]] == einstein

    table = tmp_path / "table.txt"
    invariants = ["invariants", "--catalog", "quadratic", "--seed", "5"]
    code, out, _ = run(invariants + ["--format", "table", "--out", str(table)],
                       capsys)
    assert code == 0 and out == ""
    code, out, _ = run(invariants, capsys)
    values = json.loads(out)["values"]
    assert code == 0
    rows = [line.split(" = ") for line in table.read_text().splitlines()]
    assert dict(rows) == {k: str(v) for k, v in values.items()}

    with pytest.raises(SystemExit) as exc:
        cli.run(["rank", "--catalog", "quadratic", "--expect", "many"])
    assert exc.value.code == 2
    assert "invalid int value: 'many'" in capsys.readouterr().err
    assert run(rank, capsys) == (0, rank_out, "")

    assert cli._build_parser.cache_info().misses == 1
    fresh = cli._build_parser.__wrapped__()
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 0
        shared_help = capsys.readouterr().out
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert shared_help == capsys.readouterr().out != ""
    assert cli._build_parser.cache_info().misses == 1


# sha256 of the stdout of each command, recorded before the symbol-table
# checks and the JSON readers and writers were consolidated.  A mismatch means
# the output bytes changed.  The third field saves stdout under a name that
# later commands read as {name}.
_GOLDEN = [
    (["thooft-check"],
     "dc8fae57f4af87f1ebaa870fee6e7d33de26ed662ee4111bf4818fe2fde49b1d", None),
    (["thooft-check", "--format", "table"],
     "371da6eb591903420615238e99cfb79a16ef7840175db6490286bc708f0c2bfa", None),
    (["generate", "--seed", "7", "--samples", "1"],
     "881b5fe53549330c6bfa79fd656972c718d0059d99b8d8074d2cda09c5820fb8",
     "blocks"),
    (["reconstruct", "{blocks}"],
     "73089c54bfdef07af46dcdb310fb9a923d1ba70fe02d463a8ff0fe1a0fdefc53",
     "tensor"),
    (["reconstruct", "{blocks}", "--tensor-format", "dense"],
     "00e2dce8f54c472a60b5a4a1cf1e4b32293ee801dad4af13a62929df829494ab", None),
    (["decompose", "{tensor}"],
     "e1a30ef64673fd965e6e6c56beb5bf78282ef90a3f8d9d88fafffd7dcb275119", None),
    (["invariants", "--catalog", "quartic", "--seed", "4"],
     "cf43ca288f0422a0f44125314d3cde2bb6de420962bfba96754d1072c69d5fe4", None),
    (["verify", "--seed", "11", "--samples", "3"],
     "e5b1e54fd9abf2b9de861ebdb41e705c95253be8f316f0a9403818b574944ae4", None),
    (["rank", "--catalog", "cubic_rank2", "--seed", "2", "--format", "table"],
     "2a2f90d42dd77f4f74c6fc2888d650f98b860d34ad313ec4ed93ce325c2fde0f", None),
    (["rank", "--catalog", "quadratic", "--seed", "11"],
     "6435233e5b83a532b1e4327d4f482bba86c3d87f33b6f99eda041228bef50404", None),
]


def test_cli_outputs_byte_identical(tmp_path, capsys):
    files = {}
    for argv, digest, save in _GOLDEN:
        argv = [a.format(**files) for a in argv]
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        if save:
            files[save] = str(tmp_path / f"{save}.json")
            Path(files[save]).write_text(out)
