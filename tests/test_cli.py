import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import dendrop as dp
from dendrop import enumeration
from dendrop.cli import main
from dendrop.documents import ResultSet, emit_document, parse_document
from helpers import F3, Q, action_tables, diag, n2

ONE = Fraction(1)
ZERO = Fraction(0)


def write_doc(tmp_path, name, obj, field=None):
    path = tmp_path / name
    path.write_bytes(emit_document(obj, field=field))
    return str(path)


def weight0_diagonal_operator():
    return dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 4), Fraction(1, 2)), ZERO))


# -- validate -------------------------------------------------------------------------

def test_validate_passing_algebra(tmp_path, capsys):
    path = write_doc(tmp_path, "n2.json", n2())
    assert main(["validate", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_failing_algebra_writes_report(tmp_path, capsys):
    bad = dp.make_algebra(Q, 2, {(0, 0, 1): ONE, (1, 0, 0): ONE})
    path = write_doc(tmp_path, "bad.json", bad)
    report = tmp_path / "report.json"
    assert main(["validate", path, "--report", str(report)]) == 1
    assert "FAIL" in capsys.readouterr().out
    rep = parse_document(report.read_bytes()).payload
    assert not rep.passed
    assert rep.structure_kind == "algebra"


def test_validate_operator_document(tmp_path):
    path = write_doc(tmp_path, "op.json", weight0_diagonal_operator())
    assert main(["validate", path]) == 0
    bad = dp.OOperator(weight0_diagonal_operator().domain, n2(), dp.Matrix.identity(Q, 2), ZERO)
    path2 = write_doc(tmp_path, "bad_op.json", bad)
    assert main(["validate", path2]) == 1


def test_validate_dendriform_and_bimodule(tmp_path):
    rb3 = dp.catalogue_entry("rb-3").structure
    assert main(["validate", write_doc(tmp_path, "rb3.json", rb3)]) == 0
    ba = dp.canonical_bimodule(n2())
    assert main(["validate", write_doc(tmp_path, "ba.json", ba)]) == 0
    assert main(["validate", write_doc(tmp_path, "bm.json", ba.base)]) == 0


def test_validate_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(b"{not json")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_deeply_nested_document_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: document is nested too deeply\n"


def test_validate_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.json"
    raw = json.loads(dp.emit_document(dp.make_algebra(Q, 1, {})))
    raw["payload"]["nmae"] = "x"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "payload.nmae: unknown key" in capsys.readouterr().err


# -- construct ------------------------------------------------------------------------

def test_construct_domain_matches_catalogue(tmp_path):
    path = write_doc(tmp_path, "op.json", weight0_diagonal_operator())
    out = tmp_path / "dendr.json"
    assert main(["construct", "domain", path, "-o", str(out)]) == 0
    built = parse_document(out.read_bytes()).payload
    rb2 = dp.catalogue_entry("rb-2").structure
    assert (built.prec, built.succ) == (rb2.prec, rb2.succ)


def test_construct_range_invertible(tmp_path):
    op = dp.rb_as_o_operator(
        dp.RotaBaxterOperator(n2(), diag(Q, Fraction(1, 3), ONE), ONE))
    path = write_doc(tmp_path, "op.json", op)
    out = tmp_path / "range.json"
    assert main(["construct", "range", path, "-o", str(out)]) == 0
    built = parse_document(out.read_bytes()).payload
    assert built == dp.range_dendriform_tri(op)


def test_construct_range_falls_back_to_quotient(tmp_path, capsys):
    z = dp.Matrix.zeros(Q, 2, 2)
    dom = dp.BimoduleAlgebra(dp.Bimodule(n2(), *action_tables((z, z), (z, z))),
                             dp.StructureTensor.zero(Q, 2))
    op = dp.OOperator(dom, n2(), dp.Matrix(Q, ((ONE, ZERO), (ZERO, ZERO))), ZERO)
    path = write_doc(tmp_path, "op.json", op)
    out = tmp_path / "quot.json"
    assert main(["construct", "range", path, "-o", str(out)]) == 0
    assert "quotient" in capsys.readouterr().out
    rs = parse_document(out.read_bytes()).payload
    assert rs.what == "range-quotient"
    structure, embedding, image_alg = rs.items
    assert structure.dim == 1
    assert embedding.col(0) == (ONE, ZERO)


def test_construct_range_refuses_a_singular_module_kind_operator(tmp_path, capsys):
    # the zero map is a weight-0 Rota-Baxter operator; its module reading has no quotient path
    op = dp.rb_as_module_operator(dp.RotaBaxterOperator(n2(), dp.Matrix.zeros(Q, 2, 2), ZERO))
    path = write_doc(tmp_path, "op.json", op)
    out = tmp_path / "range.json"
    assert main(["construct", "range", path, "-o", str(out)]) == 1
    assert capsys.readouterr().err == ("failed: operator is singular and the quotient path "
                                       "needs an algebra-kind operator\n")
    assert not out.exists()


def test_construct_refuses_invalid_operator(tmp_path, capsys):
    bad = dp.OOperator(weight0_diagonal_operator().domain, n2(), dp.Matrix.identity(Q, 2), ZERO)
    path = write_doc(tmp_path, "bad.json", bad)
    assert main(["construct", "domain", path]) == 1
    assert "failed" in capsys.readouterr().err


# -- canonical ------------------------------------------------------------------------

def test_canonical_round_trip_via_cli(tmp_path):
    rb5 = dp.catalogue_entry("rb-5").structure
    path = write_doc(tmp_path, "rb5.json", rb5)
    out = tmp_path / "op.json"
    assert main(["canonical", path, "-o", str(out)]) == 0
    op = parse_document(out.read_bytes()).payload
    assert op.kind == "module"
    assert op.matrix.is_identity()
    assert dp.domain_dendriform_di(op) == rb5


def test_canonical_refuses_an_invalid_dialgebra_and_writes_nothing(tmp_path, capsys):
    bad = dp.make_dendriform_di(Q, 2, {(0, 0, 1): ONE}, {(0, 0, 0): ONE})
    out = tmp_path / "op.json"
    assert main(["canonical", write_doc(tmp_path, "bad.json", bad), "-o", str(out)]) == 1
    assert not out.exists()
    assert "dialgebra axioms fail: canonical domain structure fails" in capsys.readouterr().err


# -- split-check ----------------------------------------------------------------------

def test_split_check_pass_and_fail(tmp_path):
    rb2 = write_doc(tmp_path, "rb2.json", dp.catalogue_entry("rb-2").structure)
    alg = write_doc(tmp_path, "n2.json", n2())
    assert main(["split-check", rb2, alg]) == 0
    assert main(["split-check", alg, alg]) == 2
    rb4 = write_doc(tmp_path, "rb4.json", dp.catalogue_entry("rb-4").structure)
    zero = write_doc(tmp_path, "zero.json", dp.make_algebra(Q, 2, {}))
    assert main(["split-check", rb4, zero]) == 1


def test_split_check_field_mismatch_is_an_error(tmp_path):
    rb4 = write_doc(tmp_path, "rb4.json", dp.catalogue_entry("rb-4").structure)
    other = write_doc(tmp_path, "f3.json", dp.make_algebra(F3, 2, {}))
    assert main(["split-check", rb4, other]) == 2


# -- iso ------------------------------------------------------------------------------

def test_iso_with_witness(tmp_path):
    six4 = dp.catalogue_entry("rb-4").structure
    scaled = dp.make_dendriform_di(Q, 2, {(1, 1, 0): Fraction(4)}, {})
    a = write_doc(tmp_path, "a.json", six4)
    b = write_doc(tmp_path, "b.json", scaled)
    w = write_doc(tmp_path, "w.json", diag(Q, Fraction(4), ONE), field=Q)
    assert main(["iso", a, b, "--witness", w]) == 0
    w_bad = write_doc(tmp_path, "wbad.json", dp.Matrix.identity(Q, 2), field=Q)
    assert main(["iso", a, b, "--witness", w_bad]) == 1


def test_iso_search_found_and_not_found(tmp_path, capsys):
    four = dp.dendriform_di_to_field(dp.catalogue_entry("rb-4").structure, F3)
    six = dp.dendriform_di_to_field(dp.catalogue_entry("rb-6").structure, F3)
    a = write_doc(tmp_path, "a.json", four)
    b = write_doc(tmp_path, "b.json", six)
    assert main(["iso", a, b, "--search-fp"]) == 1
    assert "48" in capsys.readouterr().out
    out = tmp_path / "w.json"
    assert main(["iso", a, a, "--search-fp", "-o", str(out)]) == 0
    witness = parse_document(out.read_bytes()).payload
    assert dp.verify_dendriform_iso(four, four, witness).passed


def test_iso_search_reports_columns_on_stderr(tmp_path, capsys):
    four = dp.dendriform_di_to_field(dp.catalogue_entry("rb-4").structure, F3)
    six = dp.dendriform_di_to_field(dp.catalogue_entry("rb-6").structure, F3)
    _, op = dp.canonical_operator_from_di(four)
    g = dp.Matrix(F3, ((0, 1), (1, 1)))
    moved = dp.domain_dendriform_di(dp.compose_with_domain_iso(op, g, dp.pullback_domain(op.domain, g)))
    a, b, c = (write_doc(tmp_path, f"{n}.json", d) for n, d in (("a", four), ("b", six), ("c", moved)))
    out = tmp_path / "w.json"
    for args, code, text, d1, d2 in (
            ([a, b], 1, "not isomorphic: exhausted 48 invertible candidate(s)\n", four, six),
            ([a, c, "-o", str(out)], 0, "isomorphic: witness found after 33 candidate(s)\n",
             four, moved)):
        assert main(["iso", *args, "--search-fp"]) == code
        res = dp.search_dendriform_iso_fp(d1, d2)
        assert capsys.readouterr() == (text, f"search: {res.nodes} columns assigned\n")
    assert out.read_bytes() == emit_document(dp.Matrix(F3, ((2, 0), (1, 1))), field=F3)


def test_iso_witness_over_another_field_exits_2(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", dp.dendriform_di_to_field(
        dp.catalogue_entry("rb-4").structure, F3))
    w = write_doc(tmp_path, "wq.json", dp.Matrix.identity(Q, 2), field=Q)
    assert main(["iso", a, a, "--witness", w]) == 2
    assert capsys.readouterr().err == "error: field mismatch: F_3 vs Q\n"


def test_iso_witness_with_columns_but_no_rows_exits_2(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", dp.catalogue_entry("rb-4").structure)
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"schema_version": "1", "field": {"kind": "rational"},
                             "payload": {"kind": "matrix", "rows": 0, "cols": 3,
                                         "entries": []}}))
    assert main(["iso", a, a, "--witness", str(w)]) == 2
    assert "payload.cols" in capsys.readouterr().err


def test_iso_witness_refuses_output_flag(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", dp.catalogue_entry("rb-4").structure)
    w = write_doc(tmp_path, "w.json", dp.Matrix.identity(Q, 2), field=Q)
    out = tmp_path / "out.json"
    assert main(["iso", a, a, "--witness", w, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: -o") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("obj", [n2(F3), dp.Matrix.identity(F3, 2)])
def test_iso_on_non_dendriform_documents_exits_2(tmp_path, capsys, obj):
    a = write_doc(tmp_path, "a.json", obj, field=F3)
    w = write_doc(tmp_path, "w.json", dp.Matrix.identity(F3, 2), field=F3)
    for mode in (["--search-fp"], ["--witness", w]):
        assert main(["iso", a, a, *mode]) == 2
        assert capsys.readouterr().err.startswith("error:")


# -- equiv ----------------------------------------------------------------------------

def test_equiv_command(tmp_path):
    rbs = [rb for rb in dp.enumerate_rb_operators(n2(F3), 0)
           if dp.rank(rb.matrix) == 2]
    op = dp.rb_as_o_operator(rbs[0])
    f = dp.Matrix(F3, ((1, 0), (0, 1)))
    op_path = write_doc(tmp_path, "op.json", op)
    f_path = write_doc(tmp_path, "f.json", f, field=F3)
    assert main(["equiv", op_path, op_path, "--f", f_path, "--g", f_path]) == 0
    twisted = dp.twist_by_range_automorphism(op, dp.Matrix(F3, ((1, 1), (0, 1))))
    tw_path = write_doc(tmp_path, "tw.json", twisted)
    fw_path = write_doc(tmp_path, "fw.json", dp.Matrix(F3, ((1, 1), (0, 1))), field=F3)
    assert main(["equiv", op_path, tw_path, "--f", fw_path, "--g", f_path]) == 0
    assert main(["equiv", op_path, tw_path, "--f", f_path, "--g", f_path]) == 1


def test_equiv_refuses_a_range_map_over_another_field(tmp_path, capsys):
    # diag(2, 1) is not multiplicative on n2 in either field: the field is what is wrong
    op_path = write_doc(tmp_path, "op.json", weight0_diagonal_operator())
    f_path = write_doc(tmp_path, "f.json", diag(F3, 2, 1), field=F3)
    g_path = write_doc(tmp_path, "g.json", dp.Matrix.identity(Q, 2))
    capsys.readouterr()
    assert main(["equiv", op_path, op_path, "--f", f_path, "--g", g_path]) == 2
    err = capsys.readouterr().err
    assert err == "error: field mismatch: Q vs F_3\n"


def test_equiv_refuses_a_singular_range_map_over_another_field(tmp_path, capsys):
    _, op = dp.canonical_operator_from_di(dp.catalogue_entry("rb-4").structure)
    op_path = write_doc(tmp_path, "op.json", op)
    f_path = write_doc(tmp_path, "f.json", dp.Matrix(F3, ((0, 0), (0, 1))), field=F3)
    g_path = write_doc(tmp_path, "g.json", dp.Matrix.identity(Q, 2))
    capsys.readouterr()
    assert main(["equiv", op_path, op_path, "--f", f_path, "--g", g_path]) == 2
    err = capsys.readouterr().err
    assert err == "error: field mismatch: Q vs F_3\n"


# -- enumerate ------------------------------------------------------------------------

def test_enumerate_dendriform_cli(tmp_path):
    out = tmp_path / "dd.json"
    assert main(["enumerate", "--what", "dendriform-di", "--dim", "1",
                 "--prime", "2", "-o", str(out)]) == 0
    rs = parse_document(out.read_bytes()).payload
    assert dict(rs.counts)["found"] == 3
    assert len(rs.items) == 3


def test_enumerate_phi_image_cli(tmp_path, capsys):
    out = tmp_path / "phi.json"
    assert main(["enumerate", "--what", "phi-image", "--dim", "1",
                 "--prime", "2", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "missing=2" in printed and "analogue" in printed
    rs = parse_document(out.read_bytes()).payload
    assert dict(rs.counts) == {"all": 3, "image": 1, "missing": 2}
    assert len(rs.items) == 2  # the missing structures, listed explicitly
    assert "analogue" in rs.label


def test_enumerate_budget_flag_and_env(tmp_path, capsys, monkeypatch):
    assert main(["enumerate", "--what", "assoc", "--dim", "2", "--prime", "2",
                 "--budget", "10", "-o", str(tmp_path / "x.json")]) == 2
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("DENDROP_BUDGET", "10")
    assert main(["enumerate", "--what", "assoc", "--dim", "2", "--prime", "2",
                 "-o", str(tmp_path / "y.json")]) == 2
    # explicit flag wins over the environment
    assert main(["enumerate", "--what", "assoc", "--dim", "2", "--prime", "2",
                 "--budget", "1000", "-o", str(tmp_path / "z.json")]) == 0


@pytest.mark.parametrize("flags", [
    ["--dim", "1", "--prime", "2", "--workers", "0"],
    ["--dim", "1", "--prime", "2", "--workers", "-3"],
    ["--dim", "0", "--prime", "2"],
    ["--dim", "1", "--prime", "4"],
    ["--dim", "1", "--prime", "1"],
    ["--dim", "25", "--prime", "2"],  # 2^15625 candidates, refused without computing them
])
def test_enumerate_rejects_bad_flags(tmp_path, capsys, flags):
    out = tmp_path / "x.json"
    assert main(["enumerate", "--what", "assoc", *flags, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command, code, error", [
    (["enumerate", "--what", "assoc", "--dim", "1", "--prime", str(2 ** 61 - 1)], 2,
     "candidates exceed budget"),
    (["enumerate", "--what", "assoc", "--dim", "1", "--prime", str(2 ** 64 + 13)], 2,
     "modulus is above the cap 2^64"),
    (["validate", "m61.json"], 0, ""),
    (["validate", "big.json"], 2, "document.field.p: modulus is above the cap 2^64"),
], ids=["prime-flag", "flag-above-cap", "prime-document", "document-above-cap"])
def test_huge_modulus_is_decided_or_refused_at_once(tmp_path, command, code, error):
    """Trial division would run for hours on 2^61 - 1; the exit must come at once."""
    for name, p in (("m61.json", 2 ** 61 - 1), ("big.json", 2 ** 64 + 13)):
        (tmp_path / name).write_text(json.dumps(
            {"schema_version": "1", "field": {"kind": "prime", "p": p},
             "payload": {"kind": "algebra", "dim": 1, "product": []}}))
    command = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
    proc = subprocess.run([sys.executable, "-m", "dendrop.cli", *command],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert error in proc.stderr


def test_enumerate_rejects_non_integer_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DENDROP_BUDGET", "abc")
    out = tmp_path / "x.json"
    assert main(["enumerate", "--what", "assoc", "--dim", "1", "--prime", "2",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "DENDROP_BUDGET" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, env, error", [
    (["--budget", "0"], None, "--budget must be at least 1, got 0"),
    (["--budget", "-5"], "1000", "--budget must be at least 1, got -5"),
    ([], "0", "DENDROP_BUDGET must be at least 1, got 0"),
    ([], "-5", "DENDROP_BUDGET must be at least 1, got -5"),
], ids=["flag-zero", "flag-negative", "env-zero", "env-negative"])
def test_enumerate_rejects_a_budget_below_one(tmp_path, capsys, monkeypatch, flag, env, error):
    if env is not None:
        monkeypatch.setenv("DENDROP_BUDGET", env)
    out = tmp_path / "x.json"
    assert main(["enumerate", "--what", "assoc", "--dim", "1", "--prime", "2", *flag,
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("what", ["rb0", "phi-image"])
def test_enumerate_starts_at_most_one_pool(tmp_path, monkeypatch, what):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)  # let two workers start on any host
    outputs = []
    for workers in ("1", "2"):
        pools.clear()
        out = tmp_path / f"{what}-{workers}.json"
        assert main(["enumerate", "--what", what, "--dim", "2", "--prime", "2",
                     "--workers", workers, "-o", str(out)]) == 0
        assert len(pools) <= 1
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_enumerate_rb0_cli(tmp_path):
    out = tmp_path / "rb.json"
    assert main(["enumerate", "--what", "rb0", "--dim", "1", "--prime", "2",
                 "-o", str(out)]) == 0
    rs = parse_document(out.read_bytes()).payload
    counts = dict(rs.counts)
    assert counts["algebras"] == 2
    # zero algebra: both maps pass; idempotent algebra: only the zero map
    assert counts["operators"] == 3


# -- one mutation of a valid enumerate call ---------------------------------------------

# small values only: a mutant may run, so none may ask for a large search or many workers
ENUMERATE_VALUES = {
    "--what": ["assoc", "rb0", "dendriform-di", "phi-image", "", "rb1", "ASSOC"],
    "--dim": ["-1", "0", "1", "2", "3", "x", "", "1.5", "99999999999999999999"],
    "--prime": ["-2", "0", "1", "2", "3", "4", "5", "9", "x", "", str(2 ** 64 + 13)],
    "--budget": ["-1", "0", "1", "2", "100", "x", "", "1e3", "99999999999999999999"],
    "--workers": ["-1", "0", "1", "2", "4", "x", ""],
}
BUDGET_ENV_VALUES = [None, "", "-5", "0", "1", "8", " 7", "x", "1e3", "99999999999999999999"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_mutation_of_a_valid_enumerate_call_exits_0_or_2(data):
    """Change one flag of ``enumerate`` or ``DENDROP_BUDGET``: the command either runs or
    refuses with exit 2, exactly one ``error:`` line on stderr and no output file."""
    flags = {"--what": "assoc", "--dim": "1", "--prime": "2", "--workers": "1"}
    env = "1000"
    mutation = data.draw(st.sampled_from(["set", "drop", "env", "unknown"]))
    if mutation == "set":
        flag = data.draw(st.sampled_from(sorted(ENUMERATE_VALUES)))
        flags[flag] = data.draw(st.sampled_from(ENUMERATE_VALUES[flag]))
    elif mutation == "drop":
        del flags[data.draw(st.sampled_from(sorted(flags)))]
    elif mutation == "env":
        env = data.draw(st.sampled_from(BUDGET_ENV_VALUES))
    else:
        flags["--bogus"] = "1"
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"DENDROP_BUDGET": env} if env is not None else {}), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        if env is None:
            os.environ.pop("DENDROP_BUDGET", None)
        out = os.path.join(tmp, "out.json")
        try:
            code = main(["enumerate", *(a for item in flags.items() for a in item), "-o", out])
        except SystemExit as e:  # argparse refuses a malformed or missing flag
            code = e.code
        assert code in (0, 2)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and os.path.exists(out)
        else:
            assert [line for line in lines if "error: " in line] == lines[-1:]
            assert not os.path.exists(out)


# -- documents of the wrong kind ------------------------------------------------------

def one_document_of_each_kind():
    """One payload of every document kind, by its JSON ``kind`` tag."""
    op = weight0_diagonal_operator()
    zero = dp.StructureTensor.zero(Q, 2)
    return {"algebra": n2(), "bimodule": op.domain.base,
            "bimodule_algebra": op.domain, "operator": op,
            "dendriform_di": dp.catalogue_entry("rb-4").structure,
            "dendriform_tri": dp.DendriformTri(zero, zero, zero),
            "matrix": dp.Matrix.identity(Q, 2),
            "report": dp.validate_associativity(n2()),
            "result_set": ResultSet.build("demo")}


DENDRIFORM = {"dendriform_di", "dendriform_tri"}
VALIDATED = {"algebra", "bimodule", "bimodule_algebra", "operator", *DENDRIFORM}

# Each slot: a command line naming one document of each kind as ``<kind>.json``,
# with SLOT where the document under test goes, and the kinds the slot accepts.
SLOT = "SLOT"
WRONG_KIND_SLOTS = {
    "validate": (["validate", SLOT, "--report", "out.json"], VALIDATED),
    "construct": (["construct", "domain", SLOT, "-o", "out.json"], {"operator"}),
    "canonical": (["canonical", SLOT, "-o", "out.json"], DENDRIFORM),
    "split-check dendriform": (["split-check", SLOT, "algebra.json", "--report", "out.json"],
                               DENDRIFORM),
    "split-check algebra": (["split-check", "dendriform_di.json", SLOT,
                             "--report", "out.json"], {"algebra"}),
    "iso d1": (["iso", SLOT, "dendriform_di.json", "--search-fp", "-o", "out.json"],
               DENDRIFORM),
    "iso d2": (["iso", "dendriform_di.json", SLOT, "--search-fp", "-o", "out.json"],
               DENDRIFORM),
    "iso --witness": (["iso", "dendriform_di.json", "dendriform_di.json", "--witness", SLOT,
                       "-o", "out.json"], {"matrix"}),
    "equiv op1": (["equiv", SLOT, "operator.json", "--f", "matrix.json", "--g", "matrix.json"],
                  {"operator"}),
    "equiv op2": (["equiv", "operator.json", SLOT, "--f", "matrix.json", "--g", "matrix.json"],
                  {"operator"}),
    "equiv --f": (["equiv", "operator.json", "operator.json", "--f", SLOT,
                   "--g", "matrix.json"], {"matrix"}),
    "equiv --g": (["equiv", "operator.json", "operator.json", "--f", "matrix.json",
                   "--g", SLOT], {"matrix"}),
}


@pytest.mark.parametrize("slot", WRONG_KIND_SLOTS)
def test_every_wrong_document_kind_exits_2_naming_the_file(tmp_path, capsys, monkeypatch,
                                                           slot):
    monkeypatch.chdir(tmp_path)
    docs = one_document_of_each_kind()
    for kind, obj in docs.items():
        write_doc(tmp_path, f"{kind}.json", obj, field=Q)
    line, accepted = WRONG_KIND_SLOTS[slot]
    assert len(docs) == 9 and accepted < docs.keys()
    for wrong in sorted(docs.keys() - accepted):
        assert main([f"{wrong}.json" if arg == SLOT else arg for arg in line]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wrong}.json:"), (slot, err)
        assert not (tmp_path / "out.json").exists(), (slot, wrong)


# -- catalogue ------------------------------------------------------------------------

def test_catalogue_cli(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["catalogue", "-o", str(out)]) == 0
    raw = json.loads(out.read_bytes())
    items = raw["payload"]["items"]
    assert len(items) == 11
    names = [item["name"] for item in items]
    assert names[0] == "rb-1" and names[-1] == "extra-5"
    flagged = [item["name"] for item in items if item.get("typo_corrected")]
    assert flagged == ["extra-2", "extra-4"]
    # parses back as a result set of dialgebras
    rs = parse_document(out.read_bytes()).payload
    assert all(isinstance(d, dp.DendriformDi) for d in rs.items)


# -- installed entry point --------------------------------------------------------------

def test_console_script_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "dendrop.cli", "catalogue"],
                          capture_output=True)
    assert proc.returncode == 0
    assert b'"rb-2"' in proc.stdout
