import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalg
from homalg.cli import main
from homalg.forge import data_dir
from homalg.operators import OPERATOR_KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = []
    for line in captured.out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            records.append(json.loads(line))
    return code, records, captured


def strip_ms(records):
    return [{k: v for k, v in r.items() if k != "ms"} for r in records]


DATA = data_dir()


def child(*argv, env=None, **kwargs):
    """`python *argv` as a fresh process, with this checkout's src as PYTHONPATH
    over `env` (default: this environment); captures text output unless
    stdout is given."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(Path(homalg.__file__).parent.parent))
    if "stdout" not in kwargs:
        kwargs.update(capture_output=True, text=True)
    return subprocess.run([sys.executable, *argv], env=env, timeout=120, **kwargs)


def test_check_variety_all_trialgebras(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "trialgebra.halg"),
        "--variety", "hom-associative-trialgebra",
    )
    assert code == 0
    assert strip_ms(records) == [
        {"target": "tri11", "check": "variety:hom-associative-trialgebra", "status": "pass"},
        {"target": "tri23", "check": "variety:hom-associative-trialgebra", "status": "pass"},
        {"target": "tri_m15", "check": "variety:hom-associative-trialgebra", "status": "pass"},
    ]


def test_check_operator_golden(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"),
        "--operator", "kx2_tensor_mult", "--kind", "rel-avg",
    )
    assert code == 0
    assert strip_ms(records) == [
        {"target": "kx2_tensor_mult", "check": "operator:rel-avg", "status": "pass"}
    ]


def test_check_rep(capsys):
    code, records, _ = run(capsys, "check", str(DATA / "kx2.halg"), "--rep", "kx2_sum2")
    assert code == 0 and records[0]["status"] == "pass"


def test_check_crossed_module(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"), "--crossed-module", "d=kx2_act_id"
    )
    assert code == 0 and records[0]["check"] == "crossed-module"


def test_exit_one_with_witness(tmp_path, capsys):
    bad = tmp_path / "bad.halg"
    bad.write_text(
        "algebra broken dim 2\n"
        "  op mul: e1 * e1 = e2\n"
        "  op mul: e2 * e2 = e1\n"
        "  map alpha: e1 = e1\n"
        "  map alpha: e2 = e2\n"
        "end\n"
    )
    code, records, _ = run(capsys, "check", str(bad), "--variety", "hom-associative")
    assert code == 1
    witness = records[0]["witness"]
    assert witness["identity"] == "associativity"
    assert witness["tuple"] == [1, 1, 2]
    assert witness["lhs"] == ["1", "0"] and witness["rhs"] == ["0", "0"]


def test_exit_two_parse_error(tmp_path, capsys):
    f = tmp_path / "syntax.halg"
    f.write_text("algebra oops dim 2\n  op mul e1 * e1 = e1\nend\n")
    code, _, captured = run(capsys, "check", str(f), "--variety", "hom-associative")
    assert code == 2
    assert "parse" in captured.err


def test_exit_three_semantic_errors(tmp_path, capsys):
    f = tmp_path / "dim.halg"
    f.write_text("algebra d dim 2\n  op m: e1 * e3 = e1\n  map alpha: e1 = e1\nend\n")
    code, _, captured = run(capsys, "check", str(f), "--variety", "hom-associative")
    assert code == 3
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"), "--variety", "hom-lie"
    )
    assert code == 3
    assert records[0]["status"] == "error"


def test_report_rep_over_an_algebra_without_its_products_is_an_error_row(tmp_path, capsys):
    # the bimodule checks read the base's `mul`, which this algebra lacks
    f = tmp_path / "bare.halg"
    f.write_text("algebra a dim 1\n  map alpha: e1 = e1\nend\n"
                 "rep v over a dim 1 kind bimodule\n  map beta: u1 = u1\nend\n")
    code, records, captured = run(capsys, "report", str(f))
    assert code == 3 and captured.err == ""
    assert [(r["target"], r["check"], r["status"]) for r in records] == [
        ("a", "multiplicative", "pass"), ("v", "rep:bimodule", "error")]
    assert "unbound op symbol 'mul'" in records[1]["detail"]


def test_construct_then_check_minus(tmp_path, capsys):
    out = tmp_path / "minus.halg"
    code, records, _ = run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", "minus", "--target", "kx2", "--out", str(out),
    )
    assert code == 0 and records[0]["written"] == str(out)
    code, records, _ = run(capsys, "check", str(out), "--variety", "hom-lie")
    assert code == 0 and records[0]["target"] == "kx2-minus"


def test_construct_then_check_hemisemi(tmp_path, capsys):
    out = tmp_path / "h.halg"
    code, _, _ = run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", "hemisemi-diass", "--rep", "kx2_reg", "--out", str(out),
    )
    assert code == 0
    code, records, _ = run(
        capsys, "check", str(out), "--variety", "hom-associative-dialgebra"
    )
    assert code == 0 and records[0]["status"] == "pass"


def test_construct_then_check_induced(tmp_path, capsys):
    out = tmp_path / "ind.halg"
    code, _, _ = run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", "induced-trialgebra", "--operator", "kx2_sum2_p1", "--out", str(out),
    )
    assert code == 0
    code, records, _ = run(
        capsys, "check", str(out), "--variety", "hom-associative-trialgebra"
    )
    assert code == 0 and records[0]["status"] == "pass"


def test_construct_yau_twist_endomorphism(tmp_path, capsys):
    out = tmp_path / "t12.halg"
    code, _, _ = run(
        capsys, "construct", str(DATA / "trialgebra.halg"),
        "--id", "yau-twist", "--target", "tri11", "--map", "phi12", "--out", str(out),
    )
    assert code == 0
    code, records, _ = run(
        capsys, "check", str(out), "--variety", "hom-associative-trialgebra"
    )
    assert code == 0


def test_construct_yau_twist_rejects_non_endomorphism(tmp_path, capsys):
    out = tmp_path / "t23.halg"
    code, _, captured = run(
        capsys, "construct", str(DATA / "trialgebra.halg"),
        "--id", "yau-twist", "--target", "tri11", "--map", "phi23", "--out", str(out),
    )
    assert code == 3
    err = json.loads(captured.err.splitlines()[-1])
    assert err["witness"]["tuple"] == [1, 1]
    assert not out.exists()


def test_construct_differential_gate_prints_witness(tmp_path, capsys):
    # d(x) = x on K[x]/(x^2) is not square-zero
    src = tmp_path / "d.halg"
    src.write_text((DATA / "kx2.halg").read_text().replace(
        "  map alpha: e2 = e2\n", "  map alpha: e2 = e2\n  map d: e2 = e2\n", 1))
    out = tmp_path / "dd.halg"
    code, _, captured = run(
        capsys, "construct", str(src), "--id", "differential-dialgebra",
        "--target", "kx2", "--map", "d", "--out", str(out),
    )
    assert code == 3 and not out.exists()
    err = json.loads(captured.err.splitlines()[-1])
    assert err["witness"] == {"identity": "square-zero", "tuple": [2],
                              "lhs": ["0", "1"], "rhs": ["0", "0"]}


@pytest.mark.parametrize("cid, extra, name", [
    pytest.param(cid, extra, name, id=cid) for cid, extra, name in (
        ("regular-bimodule", [], "kx2-regular-bimodule"),
        ("regular-action", [], "kx2-regular-action"),
        ("tensor-square", [], "kx2-tensor-square"),
        ("direct-sum", ["--n", "3"], "kx2-sum3"),
    )])
def test_construct_rep_builder_roundtrip(tmp_path, capsys, cid, extra, name):
    out = tmp_path / "rep.halg"
    code, records, _ = run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", cid, "--target", "kx2", *extra, "--out", str(out),
    )
    assert code == 0 and records == [{"written": str(out), "declarations": ["kx2", name]}]
    code, records, _ = run(capsys, "check", str(out), "--rep", name)
    assert code == 0 and records[0]["status"] == "pass"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_construct_direct_sum_needs_one_copy(tmp_path, capsys, n):
    out = tmp_path / "never.halg"
    code, records, captured = run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", "direct-sum", "--target", "kx2", "--n", n, "--out", str(out),
    )
    assert code == 3 and records == [] and not out.exists()
    assert json.loads(captured.err) == {
        "error": "semantic", "detail": f"direct_sum needs n >= 1, got {n}"}


def test_construct_dispatches_every_table_id(tmp_path, capsys):
    # every id of the three construction tables reaches its family's builder:
    # named with no input, it asks for that family's input
    from homalg.constructions import FUNCTORS, HEMISEMI, INDUCED

    out = str(tmp_path / "never.halg")
    for table, flag in ((FUNCTORS, "target"), (HEMISEMI, "rep"), (INDUCED, "operator")):
        for cid in table:
            code, _, captured = run(capsys, "construct", str(DATA / "kx2.halg"),
                                    "--id", cid.value, "--out", out)
            assert code == 3, cid
            assert json.loads(captured.err) == {
                "error": "semantic", "detail": f"construction {cid.value!r} needs --{flag}"}
    code, _, captured = run(capsys, "construct", str(DATA / "kx2.halg"),
                            "--id", "graph-closure", "--out", out)
    assert code == 3 and "unknown construction id" in captured.err
    assert not os.path.exists(out)


def test_construct_output_is_canonical(tmp_path, capsys):
    from homalg.dsl import parse, serialize

    out = tmp_path / "p.halg"
    run(
        capsys, "construct", str(DATA / "kx2.halg"),
        "--id", "plus", "--target", "kx2", "--out", str(out),
    )
    text = out.read_text()
    src = parse(text)
    assert parse(serialize(src)).names() == src.names()


def test_report_zero_file(capsys):
    code, records, _ = run(capsys, "report", str(DATA / "zero.halg"))
    assert code == 0
    # one record per applicable certifier per declaration, all passing
    assert all(r["status"] == "pass" for r in records)
    assert {r["target"] for r in records} == {"zero1", "zero2", "zero3"}


def test_report_counts_failures(tmp_path, capsys):
    f = tmp_path / "one_bad.halg"
    f.write_text(
        "algebra good dim 1\n  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n"
        "algebra broken dim 2\n"
        "  op mul: e1 * e1 = e2\n  op mul: e2 * e2 = e1\n"
        "  map alpha: e1 = e1\n  map alpha: e2 = e2\nend\n"
    )
    code, records, _ = run(capsys, "report", str(f))
    assert code == 1
    fails = [r for r in records if r["status"] == "fail"]
    assert len(fails) == 1 and fails[0]["target"] == "broken"


def test_report_summary_table(capsys):
    code, _, captured = run(capsys, "report", str(DATA / "zero.halg"), "--summary")
    assert code == 0
    assert "summary:" in captured.out and "pass=" in captured.out


def test_check_cross_validation(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "trialgebra.halg"),
        "--target", "tri23", "--variety", "hom-associative-trialgebra",
        "--cross-check", "--samples", "20", "--seed", "3",
    )
    assert code == 0
    assert [r["check"] for r in records] == [
        "variety:hom-associative-trialgebra",
        "cross-check:hom-associative-trialgebra",
    ]


def test_check_multiplicative(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "trialgebra.halg"), "--target", "tri23",
        "--multiplicative",
    )
    assert code == 1
    assert records[0]["status"] == "fail"


def test_check_o_operator_weight_flag(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"),
        "--operator", "kx2_sum2_p1", "--kind", "o-operator", "--weight", "-1",
    )
    assert code == 0
    assert records[0]["check"] == "operator:o-operator:-1"
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"),
        "--operator", "kx2_sum2_p1", "--kind", "o-operator", "--weight", "1/2",
    )
    assert code == 1 and records[0]["status"] == "fail"
    # a negative fraction after a separate --weight is its value, not an option
    argv = ["check", str(DATA / "kx2.halg"), "--operator", "kx2_act_id", "--kind", "o-operator"]
    code, joined, _ = run(capsys, *argv, "--weight=-1/2")
    assert code == 1 and joined[0]["check"] == "operator:o-operator:-1/2"
    code, separated, _ = run(capsys, *argv, "--weight", "-1/2")
    assert code == 1 and strip_ms(separated) == strip_ms(joined)


@pytest.mark.parametrize("weight", ["abc", "1/0"])
def test_a_weight_that_is_not_a_rational_is_one_error_record(capsys, weight):
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"),
        "--operator", "kx2_act_id", "--kind", "o-operator", "--weight", weight,
    )
    assert code == 3
    assert strip_ms(records) == [{"target": "*", "check": "check", "status": "error",
                                  "detail": f"--weight expects a rational P/Q, got {weight!r}"}]


@pytest.mark.parametrize("kind", [k for k in OPERATOR_KINDS if k != "o-operator"])
def test_a_weight_with_a_kind_that_ignores_it_is_one_error_record(capsys, kind):
    code, records, _ = run(
        capsys, "check", str(DATA / "kx2.halg"),
        "--operator", "kx2_act_id", "--kind", kind, "--weight", "3",
    )
    assert code == 3
    assert strip_ms(records) == [{"target": "*", "check": "check", "status": "error",
                                  "detail": "--weight applies to --kind o-operator only"}]


@pytest.mark.parametrize("flags, detail", [
    (["--rep", "kx2_reg", "--weight", "3"], "--weight applies"),
    (["--rep", "kx2_reg", "--kind", "nijenhuis"], "--kind applies"),
    (["--rep", "kx2_reg", "--kind", "rel-avg"], "--kind applies"),
    (["--variety", "hom-associative", "--kind", "o-operator", "--weight", "-1/2"],
     "--kind and --weight apply"),
    (["--multiplicative", "--weight", "1"], "--weight applies"),
    (["--variety", "hom-associative", "--operator", "kx2_act_id", "--kind", "nijenhuis"],
     "--kind applies"),
])
def test_operator_flags_outside_an_operator_check_exit_three(tmp_path, flags, detail):
    # an explicit --kind, even the default one, or a --weight that no check reads
    proc = child("-m", "homalg", "check", str(DATA / "kx2.halg"), *flags, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (3, "")
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {"error": "semantic",
                                "detail": f"{detail} to an --operator check only"}


@pytest.mark.parametrize("flags, detail", [
    (["--rep", "kx2_reg", "--multiplicative"],
     "--rep and --multiplicative are separate checks; give one per run"),
    (["--variety", "hom-associative", "--rep", "kx2_reg"],
     "--variety and --rep are separate checks; give one per run"),
    (["--operator", "kx2_act_id", "--crossed-module", "d=kx2_act_id"],
     "--operator and --crossed-module are separate checks; give one per run"),
    (["--variety", "hom-associative", "--operator", "kx2_act_id", "--multiplicative"],
     "--variety and --operator and --multiplicative are separate checks; give one per run"),
    (["--multiplicative", "--cross-check"], "--cross-check applies to a --variety check only"),
    (["--rep", "kx2_reg", "--cross-check"], "--cross-check applies to a --variety check only"),
    (["--rep", "kx2_reg", "--grid", "4/2", "--samples", "5"],
     "--samples and --grid apply to a --cross-check run only"),
    (["--rep", "kx2_reg", "--target", "kx2"],
     "--target applies to a --variety or --multiplicative check only"),
    (["--operator", "kx2_act_id", "--target", "kx2"],
     "--target applies to a --variety or --multiplicative check only"),
    (["--variety", "hom-associative", "--seed", "4"],
     "--seed applies to a --cross-check run only"),
    (["--variety", "hom-associative", "--seed", "0", "--samples", "50", "--grid", "1/1"],
     "--samples and --seed and --grid apply to a --cross-check run only"),
    (["--multiplicative", "--target", "kx2", "--grid", "1/1"],
     "--grid applies to a --cross-check run only"),
])
def test_more_than_one_check_flag_exits_three(tmp_path, flags, detail):
    # the branch chain used to run the first check flag and ignore the rest;
    # --target is read by --variety and --multiplicative only, and --samples,
    # --seed and --grid by --cross-check only, even at their default values
    proc = child("-m", "homalg", "check", str(DATA / "kx2.halg"), *flags, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (3, "")
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {"error": "semantic", "detail": detail}


def test_cross_check_defaults_are_unchanged(capsys):
    base = ["check", str(DATA / "trialgebra.halg"), "--target", "tri23",
            "--variety", "hom-associative-trialgebra", "--cross-check"]
    _, implicit, _ = run(capsys, *base)
    _, explicit, _ = run(capsys, *base, "--samples", "50", "--seed", "0")
    assert strip_ms(implicit) == strip_ms(explicit)
    assert [r["status"] for r in implicit] == ["pass", "pass"]


def test_report_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", str(DATA / "jordan.halg"))
    _, second, _ = run(capsys, "report", str(DATA / "jordan.halg"))
    assert strip_ms(first) == strip_ms(second)
    # records appear in declaration order
    targets = [r["target"] for r in first]
    assert targets == sorted(targets, key=targets.index)


def test_report_trialgebras_flags_non_multiplicative(capsys):
    code, records, _ = run(capsys, "report", str(DATA / "trialgebra.halg"))
    assert code == 1
    rows = {(r["target"], r["check"]): r["status"] for r in records}
    assert rows[("tri11", "multiplicative")] == "pass"
    assert rows[("tri23", "multiplicative")] == "fail"
    assert rows[("tri23", "variety:hom-associative-trialgebra")] == "pass"
    # the dialgebra fragment of a trialgebra is also reported
    assert rows[("tri11", "variety:hom-associative-dialgebra")] == "pass"


def test_rep_witness_carries_slots(tmp_path, capsys):
    f = tmp_path / "brokenrep.halg"
    f.write_text(
        "algebra a dim 2\n"
        "  op mul: e1 * e1 = e1\n  op mul: e1 * e2 = e2\n  op mul: e2 * e1 = e2\n"
        "  map alpha: e1 = e1\n  map alpha: e2 = e2\n"
        "end\n"
        "rep bad over a dim 2 kind bimodule\n"
        "  lmap l: e1 * u1 = u1\n  lmap l: e1 * u2 = u2\n  lmap l: e2 * u1 = u2\n"
        "  rmap r: u1 * e1 = u1\n"
        "  map beta: u1 = u1\n  map beta: u2 = u2\n"
        "end\n"
    )
    code, records, _ = run(capsys, "check", str(f), "--rep", "bad")
    assert code == 1
    w = records[0]["witness"]
    assert "slots" in w and "u" in w["slots"]


def test_report_contract_over_shipped_catalog(capsys):
    # report runs every applicable certifier, so rows may legitimately fail
    # for entries that only hold a weaker property; the failures over the
    # shipped catalog are exactly: coordinate-sum operators are relative
    # averaging but not product morphisms, and the twisted trialgebras have
    # non-endomorphism twists
    for path in sorted(DATA.glob("*.halg")):
        code, records, _ = run(capsys, "report", str(path))
        bad = {(r["target"], r["check"]) for r in records if r["status"] != "pass"}
        expected = {
            (t, c) for (t, c) in bad
            if (c == "operator:homomorphic-rel-avg" and t.endswith("_sum"))
            or (c == "multiplicative" and t in ("tri23", "tri_m15"))
        }
        assert bad == expected, (path.name, bad - expected)
        assert code == (1 if bad else 0), path.name


def test_cross_check_grid_flag(capsys):
    code, records, _ = run(
        capsys, "check", str(DATA / "jordan.halg"),
        "--target", "j2t2", "--variety", "hom-jordan",
        "--cross-check", "--samples", "25", "--seed", "7", "--grid", "4/2",
    )
    assert code == 0
    assert records[-1]["check"] == "cross-check:hom-jordan"
    assert records[-1]["status"] == "pass"
    code, _, captured = run(
        capsys, "check", str(DATA / "jordan.halg"),
        "--target", "j2", "--variety", "hom-jordan",
        "--cross-check", "--grid", "bogus",
    )
    assert code == 3


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cross_check_without_samples_is_a_semantic_error(samples):
    # a cross-check that draws nothing used to print a passing record
    proc = child("-m", "homalg", "check", str(DATA / "kx2.halg"), "--variety",
                 "hom-associative", "--target", "kx2", "--cross-check", "--samples", samples)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (proc.returncode, proc.stderr) == (3, "")
    # refused before the target is certified
    assert [(r["check"], r["status"]) for r in records] == [("check", "error")]
    assert records[-1]["detail"] == f"a random check needs at least one sample, got {samples}"


BROKEN = ("algebra broken dim 2\n  op mul: e1 * e1 = e2\n  op mul: e2 * e2 = e1\n"
          "  map alpha: e1 = e1\n  map alpha: e2 = e2\nend\n")


@pytest.mark.parametrize("flags, detail", [
    (["--samples", "0"], "a random check needs at least one sample, got 0"),
    (["--grid", "bogus"], "--grid expects N/D with positive integers, got 'bogus'"),
], ids=["samples", "grid"])
def test_bad_cross_check_flags_are_refused_whatever_the_data(tmp_path, flags, detail):
    # a target that fails its variety check never reaches the cross-check,
    # so a bad flag was once left unreported behind the failing record
    bad = tmp_path / "bad.halg"
    bad.write_text(BROKEN)
    proc = child("-m", "homalg", "check", str(bad), "--variety", "hom-associative",
                 "--cross-check", *flags)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (proc.returncode, proc.stderr) == (3, "")
    assert [(r["target"], r["check"], r["status"], r["detail"]) for r in records] == [
        ("*", "check", "error", detail)]


def test_no_stdout_exits_one_without_traceback():
    # fd 1 is closed before the interpreter starts, so sys.stdout is None
    proc = child("-m", "homalg", "report", str(DATA / "kx3.halg"),
                 stdout=None, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_one_without_traceback(unbuffered):
    # the reader of stdout is gone before the first record is written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = child("-m", "homalg", "report", str(DATA / "kx3.halg"),
                     env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("command", [
    ["report"],
    ["check", "--variety", "hom-associative"],
    ["construct", "--id", "minus", "--target", "kx2", "--out", "never.halg"],
])
def test_unreadable_input_exits_two_with_one_json_line(tmp_path, command):
    missing = tmp_path / "no-such.halg"
    not_utf8 = tmp_path / "latin1.halg"
    not_utf8.write_bytes("algebra caf\xe9 dim 1\nend\n".encode("latin-1"))
    for path in (missing, tmp_path, not_utf8):
        proc = child("-m", "homalg", command[0], str(path), *command[1:], cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "read" and str(path) in doc["detail"]
    assert not (tmp_path / "never.halg").exists()


def test_unwritable_output_exits_two_with_one_json_line(tmp_path):
    for out in (tmp_path, tmp_path / "no-such-dir" / "out.halg"):
        proc = child("-m", "homalg", "construct", str(DATA / "ut2.halg"), "--id", "minus",
                     "--target", "ut2", "--out", str(out), cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "write" and doc["detail"].startswith(f"{out}: ")
    assert not (tmp_path / "no-such-dir").exists()


_EMPTY_KEYWORD_ROWS = {  # block -> (file text, line of the row with an empty keyword)
    "algebra": ("algebra a dim 1\n  : e1 * e1 = e1\n  map alpha: e1 = e1\nend\n", 2),
    "rep": ("algebra a dim 1\n  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n"
            "rep v over a dim 1 kind bimodule\n  : e1 * u1 = u1\n  map beta: u1 = u1\nend\n", 6),
}


@pytest.mark.parametrize("block", sorted(_EMPTY_KEYWORD_ROWS))
def test_empty_row_keyword_exits_two_without_traceback(tmp_path, block):
    text, line_no = _EMPTY_KEYWORD_ROWS[block]
    path = tmp_path / "empty-keyword.halg"
    path.write_text(text, encoding="utf-8")
    for argv in (["report", str(path)],
                 ["check", str(path), "--variety", "hom-associative"],
                 ["construct", str(path), "--id", "minus", "--target", "a", "--out", "out.halg"]):
        proc = child("-m", "homalg", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        (line,) = proc.stderr.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "parse" and doc["detail"].startswith(f"line {line_no}:")


def test_a_numeral_too_long_for_int_exits_two_with_one_json_line(tmp_path):
    # a 5,000-digit coefficient, basis index and dimension: past Python's int() limit
    long = "7" * 5000
    texts = (f"algebra a dim 1\n  op mul: e1 * e1 = {long} * e1\n  map alpha: e1 = e1\nend\n",
             f"algebra a dim 1\n  op mul: e1 * e{long} = e1\n  map alpha: e1 = e1\nend\n",
             f"algebra a dim {long}\n  map alpha: e1 = e1\nend\n")
    for text in texts:
        path = tmp_path / "long.halg"
        path.write_text(text, encoding="utf-8")
        proc = child("-m", "homalg", "report", str(path), cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "parse" and "numeral of 5000 digits is too long" in doc["detail"]


# prefixed to a child's code: at exit, write the loaded homalg, dataclasses
# and inspect modules to stderr as a sorted JSON list
_LOADED_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: sys.stderr.write(json.dumps(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] in ('homalg', 'dataclasses', 'inspect')))))\n"
)


def _as_main(*argv):
    """Child code that runs `homalg ARGV` as `python -m homalg` runs it."""
    return (f"import runpy\nsys.argv = {['homalg', *argv]!r}\n"
            "runpy.run_module('homalg', run_name='__main__')")


@pytest.mark.parametrize("code, constructs", [
    ("import homalg.cli", False),
    (_as_main("report", str(DATA / "kx2.halg")), False),
    (_as_main("construct", str(DATA / "kx2.halg"), "--id", "minus", "--target", "kx2",
              "--out", "out.halg"), True),
], ids=["import", "report", "construct"])
def test_startup_loads_no_dataclasses_inspect_or_forge(code, constructs, tmp_path):
    # only `construct` (and `check --crossed-module`) load the constructions
    proc = child("-c", _LOADED_AT_EXIT + code, cwd=tmp_path)
    loaded = set(json.loads(proc.stderr))
    assert {"homalg.cli", "homalg.engine"} <= loaded
    assert not {"dataclasses", "inspect", "homalg.forge"} & loaded
    assert ("homalg.constructions" in loaded) is constructs
    assert (tmp_path / "out.halg").exists() is constructs


def test_bare_import_loads_no_submodule():
    proc = child("-c", _LOADED_AT_EXIT + "import homalg")
    assert proc.returncode == 0 and json.loads(proc.stderr) == ["homalg"]
