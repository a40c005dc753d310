"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``run_pass`` runs the
workload's fixed job once and returns only when it has finished and its
outputs have been checked.  ``prepare`` builds every input (seeded) and
warms up; it is what ``setup_s`` times.  Calls into ``dendrop`` go through
a tracer, which records a span per call in the traced run and calls
straight through otherwise.

A failed check or an exception fails the operation it belongs to and is
reported on stderr; it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from tracing import NullTracer


@dataclass
class PassResult:
    item_s: list                      # wall time of each item, in seconds
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)   # exact work counts of the pass
    digest: str = ""                  # hash of every document the pass emitted
    child_cpu_s: float = 0.0


class Workload:
    """``prepare`` is repeated to time set-up; ``prepare_once`` runs once after it."""

    def prepare_once(self):
        """Warm up with one untraced pass, so that the first timed pass is not a cold one."""
        self.run_pass(NullTracer())


def _fail(workload: str, what: str) -> None:
    print(f"[{workload}] check failed: {what}", file=sys.stderr)


def _guarded(workload: str, fn, *args):
    """Run one operation; an exception is reported and read as a failure."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark counts it and keeps running
        print(f"[{workload}] operation raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- shared rational inputs ---------------------------------------------------------

_ONE = Fraction(1)

# Small associative algebras over Q: name -> (dim, {(i, j, k): c}).
Q_ALGEBRAS = {
    "n2": (2, {(1, 1, 0): 1}),
    "kx2": (2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
    "split2": (2, {(0, 0, 0): 1, (1, 1, 1): 1}),
    "kx3": (3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 2): 1}),
    "split3": (3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1}),
    "kx2k": (3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (2, 2, 2): 1}),
}

# Weight-one Rota-Baxter operators, as diagonals.  -id is invertible.  A
# diagonal with zeros is -pi, pi the projection onto the subalgebra spanned
# by the -1 coordinates along the ideal spanned by the 0 coordinates: it is
# singular and its kernel is an ideal, so the range goes through the quotient.
RB_SOURCES = [
    ("n2", (-1, -1)), ("kx2", (-1, -1)), ("split2", (-1, -1)),
    ("kx2", (-1, 0)), ("split2", (-1, 0)),
    ("kx3", (-1, -1, -1)), ("split3", (-1, -1, -1)), ("kx2k", (-1, -1, -1)),
    ("kx3", (-1, 0, 0)), ("split3", (-1, -1, 0)), ("kx2k", (-1, -1, 0)),
]

_OFF_DIAGONAL = [Fraction(k) for k in (-1, 0, 1)]
_DIAGONAL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]


def small_invertible(dp, rng: random.Random, n: int):
    """Seeded invertible rational n x n matrix with small entries.

    A row permutation of L U, with L unit lower triangular and U upper
    triangular, off-diagonal entries in {-1, 0, 1} and pivots in
    {1, -1, 2, 1/2}: invertible by construction, and its inverse stays as
    small as itself, so the cost of an item varies little with the seed.
    """
    L = [[_ONE if i == j else rng.choice(_OFF_DIAGONAL) if i > j else Fraction(0)
          for j in range(n)] for i in range(n)]
    U = [[rng.choice(_DIAGONAL) if i == j else rng.choice(_OFF_DIAGONAL) if i < j
          else Fraction(0) for j in range(n)] for i in range(n)]
    rows = [tuple(sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n))
            for i in range(n)]
    rng.shuffle(rows)
    return dp.Matrix(dp.RATIONALS, tuple(rows))


def q_algebra(dp, name):
    dim, triples = Q_ALGEBRAS[name]
    return dp.make_algebra(dp.RATIONALS, dim,
                           {k: Fraction(c) for k, c in triples.items()}, name=name)


def rb_weight_one(dp, name, diag):
    alg = q_algebra(dp, name)
    n = alg.dim
    P = dp.Matrix(dp.RATIONALS, tuple(tuple(Fraction(diag[i]) if i == j else Fraction(0)
                                            for j in range(n)) for i in range(n)))
    return dp.RotaBaxterOperator(alg, P, _ONE)


# -- fp-dialgebras ------------------------------------------------------------------

class FpDialgebras(Workload):
    """``phi_image_experiment(2, 2)``, one call per pass."""

    name = "fp-dialgebras"
    DIM, P = 2, 2

    def __init__(self, env):
        self.dp = env.dp
        fixture = _read_json(env.root / "tests" / "fixtures" / "enumeration_counts.json")
        self.expected = fixture["phi_image"][f"{self.DIM},{self.P}"]

    def prepare(self, seed):
        pass  # the inputs are fixed (dim 2, p = 2); the seed only labels the run

    def run_pass(self, tr) -> PassResult:
        t0 = time.perf_counter()
        ok, counts = _guarded(self.name, self._traced if tr.traced else self._untraced,
                              tr) or (False, {})
        dt = time.perf_counter() - t0
        return PassResult([dt], 1, 0 if ok else 1, counts)

    def _check(self, counts, round_trip_failures, subset) -> bool:
        ok = True
        if counts != self.expected:
            _fail(self.name, f"counts {counts} != fixture {self.expected}")
            ok = False
        if round_trip_failures:
            _fail(self.name, f"{round_trip_failures} canonical round trips failed")
            ok = False
        if not subset:
            _fail(self.name, "image is not a subset of all dialgebras")
            ok = False
        return ok

    def _untraced(self, tr):
        r = self.dp.phi_image_experiment(self.DIM, self.P)
        return self._check(r.counts, len(r.round_trip_failures),
                           r.image_subset_of_all), {}

    def _traced(self, tr):
        """The stages of ``phi_image_experiment``, called in the same order."""
        dp, n, p = self.dp, self.DIM, self.P
        algebras = tr.call(dp.enumerate_associative_products, n, p)
        all_dd = tr.call(dp.enumerate_dendriform_di, n, p)
        image, rb_found = set(), 0
        for alg in algebras:
            ops = tr.call(dp.enumerate_rb_operators, alg, alg.field.zero)
            rb_found += len(ops)
            for rb in ops:
                image.add(tr.call(dp.domain_dendriform_di,
                                  tr.call(dp.rb_as_module_operator, rb)))
        failures = 0
        for d in all_dd:
            try:
                tr.call(dp.canonical_operator_from_di, d)
            except dp.errors.InvalidDendriformError:
                failures += 1
        all_set = set(all_dd)
        counts = {"all": len(all_dd), "image": len(image),
                  "missing": len(all_set - image)}
        ok = self._check(counts, failures, image <= all_set)
        # Candidate spaces the three public enumerators cover, and what they accept.
        candidates = p ** (n ** 3) + p ** (2 * n ** 3) + len(algebras) * p ** (n * n)
        return ok, {"candidates": candidates,
                    "accepted": len(algebras) + len(all_dd) + rb_found}


# -- fp-rb-classify -----------------------------------------------------------------

def rb_classify(dp, tr, dim: int, p: int, item_s: list) -> dict:
    """Library run of the classification: weight-0 Rota-Baxter domain dialgebras
    over F_p, bucketed by ``search_dendriform_iso_fp`` against class
    representatives, in lexicographic order of the structures.

    Appends one item time per associative product to ``item_s``.
    """
    F = dp.prime_field(p)
    algebras = tr.call(dp.enumerate_associative_products, dim, p)
    images, operators = set(), 0
    for alg in algebras:            # one item: one algebra's operators and images
        t0 = time.perf_counter()
        for rb in tr.call(dp.enumerate_rb_operators, alg, F.zero):
            operators += 1
            images.add(tr.call(dp.domain_dendriform_di, tr.call(dp.rb_as_module_operator, rb)))
        item_s.append(time.perf_counter() - t0)
    reps, sizes = [], []
    calls = tried = bad_witnesses = 0
    for d in sorted(images, key=lambda s: (s.prec.entries, s.succ.entries)):
        for c, rep in enumerate(reps):
            res = tr.call(dp.search_dendriform_iso_fp, d, rep)
            calls += 1
            tried += res.candidates_tried
            if res.found:
                bad_witnesses += not tr.call(dp.verify_dendriform_iso, d, rep,
                                             res.witness.matrix).passed
                sizes[c] += 1
                break
        else:
            reps.append(d)
            sizes.append(1)
    with tr.span("equivalence.gl_matrices"):
        gl = list(dp.gl_matrices(F, dim))
    auts = [sum(tr.call(dp.verify_dendriform_iso, r, r, g).passed for g in gl) for r in reps]
    return {"assoc": len(algebras), "rb_operators": operators,
            "images": len(images), "classes": len(reps),
            "class_sizes": sorted(sizes), "gl_order": len(gl),
            "sizes": sizes, "aut_orders": auts, "bad_witnesses": bad_witnesses,
            "search_calls": calls, "gl_tried": tried}


class FpRbClassify(Workload):
    """Weight-0 Rota-Baxter images over F_3 in dimension 2, bucketed by isomorphism."""

    name = "fp-rb-classify"
    DIM, P = 2, 3
    FROZEN = ("assoc", "rb_operators", "images", "classes", "class_sizes", "gl_order")

    def __init__(self, env):
        self.dp = env.dp
        self.expected = _read_json(env.bench / "expected_rb_classify.json")

    def prepare(self, seed):
        pass  # the inputs are fixed (dim 2, p = 3); the seed only labels the run

    def run_pass(self, tr) -> PassResult:
        item_s = []
        got = _guarded(self.name, rb_classify, self.dp, tr, self.DIM, self.P, item_s)
        if not got:
            return PassResult(item_s, 1, 1)
        ok = True
        want = {k: self.expected[k] for k in self.FROZEN}
        if {k: got[k] for k in self.FROZEN} != want:
            _fail(self.name, f"{ {k: got[k] for k in self.FROZEN} } != expected {want}")
            ok = False
        if got["bad_witnesses"]:
            _fail(self.name, f"{got['bad_witnesses']} search witnesses do not verify")
            ok = False
        # Orbit-stabilizer: each class is a whole GL orbit of size |GL| / |Aut|.
        orbit = [Fraction(got["gl_order"], a) for a in got["aut_orders"]]
        if orbit != got["sizes"] or sum(orbit) != got["images"]:
            _fail(self.name, f"orbit-stabilizer fails: |GL|/|Aut| = {orbit}, "
                             f"class sizes {got['sizes']}")
            ok = False
        return PassResult(item_s, 1, 0 if ok else 1,
                          {k: got[k] for k in ("search_calls", "gl_tried")})


# -- q-pipeline ---------------------------------------------------------------------

@dataclass(frozen=True)
class QItem:
    label: str
    tri: bool
    structure: object      # DendriformDi or DendriformTri
    h: object              # invertible transport matrix
    source: object = None  # weight-one operator the trialgebra came from
    singular: bool = False


def q_items(dp, seed: int) -> list:
    """The seeded q-pipeline job, 83 items, each with its own seeded transport.

    Every catalogue dialgebra twice (dim 2) and its direct sum with each
    one-dimensional dialgebra (dim 3); each weight-one operator source twice
    in dim 2 and three times in dim 3.  The fixed mix puts the median item
    inside the dim-3 dialgebras and the 90th percentile inside the dim-3
    trialgebras, so that the percentiles do not jump between kinds with the seed.
    """
    rng = random.Random(seed)
    items = []
    for entry in dp.builtin_catalogue():
        d = entry.structure
        for _ in range(2):
            items.append(QItem(f"di2:{entry.name}", False, d, small_invertible(dp, rng, 2)))
        # Direct sums with the one-dimensional dialgebras: zero, e<e=e, e>e=e.
        for extra in ("zero", "prec", "succ"):
            prec = dict(d.prec.nonzero_triples())
            succ = dict(d.succ.nonzero_triples())
            if extra != "zero":
                (prec if extra == "prec" else succ)[(2, 2, 2)] = _ONE
            d3 = dp.make_dendriform_di(dp.RATIONALS, 3, prec, succ)
            items.append(QItem(f"di3:{entry.name}+{extra}", False, d3,
                               small_invertible(dp, rng, 3)))
    for name, diag in RB_SOURCES:
        rb = rb_weight_one(dp, name, diag)
        if not dp.validate_rota_baxter(rb).passed:
            raise RuntimeError(f"generator bug: {name} {diag} is not Rota-Baxter")
        op = dp.rb_as_o_operator(rb)
        singular = 0 in diag
        tri = dp.domain_dendriform_tri(op)
        for _ in range(len(diag)):
            items.append(QItem(f"tri{len(diag)}:{name}{'-pi' if singular else '-id'}",
                               True, tri, small_invertible(dp, rng, len(diag)),
                               op, singular))
    rng.shuffle(items)
    return items


def run_q_item(dp, tr, it: QItem, emitted: list) -> bool:
    """validate -> canonical -> transport -> domain -> range -> splitting -> iso -> documents."""
    if it.tri:
        validate, canonical = dp.validate_dendriform_tri, dp.canonical_operator_from_tri
        domain, rng_of = dp.domain_dendriform_tri, dp.range_dendriform_tri
    else:
        validate, canonical = dp.validate_dendriform_di, dp.canonical_operator_from_di
        domain, rng_of = dp.domain_dendriform_di, dp.range_dendriform_di
    d, h = it.structure, it.h
    checks = []
    checks.append(("validate", tr.call(validate, d).passed))
    _, op = tr.call(canonical, d)
    with tr.span("operators.transport"):
        source = tr.call(dp.pullback_domain, op.domain, h)
        op2 = tr.call(dp.compose_with_domain_iso, op, h, source)
    transported = tr.call(domain, op2)
    rng_structure = tr.call(rng_of, op2)
    checks.append(("range reproduces input", rng_structure == d))
    checks.append(("splitting", tr.call(dp.check_splitting, rng_structure,
                                        tr.call(dp.star_product, d)).passed))
    if it.singular:
        first = tr.call(dp.range_dendriform_quotient, it.source, "first")
        last = tr.call(dp.range_dendriform_quotient, it.source, "last")
        checks.append(("quotient section rules agree", first == last))
        checks.append(("quotient splitting", tr.call(
            dp.check_splitting, first.structure, first.image_algebra).passed))
    elif it.source is not None:
        r = tr.call(rng_of, it.source)
        checks.append(("source range splitting",
                       tr.call(dp.check_splitting, r, it.source.codomain).passed))
    checks.append(("iso witness", tr.call(dp.verify_dendriform_iso, transported, d, h).passed))
    for obj in (transported, op2):
        data = tr.call(dp.emit_document, obj)
        back = tr.call(dp.parse_document, data).payload
        checks.append(("document round trip", back == obj))
        checks.append(("re-emission identical", tr.call(dp.emit_document, back) == data))
        emitted.append(data)
    bad = [name for name, passed in checks if not passed]
    if bad:
        _fail("q-pipeline", f"{it.label}: {', '.join(bad)}")
    return not bad


class QPipeline(Workload):
    """Seeded rational inputs through the whole construction pipeline."""

    name = "q-pipeline"

    def __init__(self, env):
        self.dp = env.dp

    def prepare(self, seed):
        self.items = q_items(self.dp, seed)

    def run_pass(self, tr) -> PassResult:
        item_s, emitted, failed = [], [], 0
        for it in self.items:
            t0 = time.perf_counter()
            with tr.span("item"):
                ok = _guarded(self.name, run_q_item, self.dp, tr, it, emitted)
            item_s.append(time.perf_counter() - t0)
            failed += not ok
        digest = hashlib.sha256(b"".join(emitted)).hexdigest()
        return PassResult(item_s, len(self.items), failed,
                          {"bytes": sum(map(len, emitted))}, digest)


# -- cli-session --------------------------------------------------------------------

def _invertible_2x2_mod(rng: random.Random, p: int):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return ((a, b), (c, d))


class CliSession(Workload):
    """A fixed script of ``python -m dendrop.cli`` runs on seeded documents."""

    name = "cli-session"
    OUTPUTS = ("cat.json", "op.json", "dom.json", "rng.json", "q.json", "w.json",
               "assoc.json", "rb0.json", "phi.json")

    def __init__(self, env):
        self.env = env
        self.dp = env.dp
        self.dir = env.tmp / "cli"
        # Never more workers than CPUs, and at most two.
        self.workers = min(2, env.nproc)
        fixture = _read_json(env.root / "tests" / "fixtures" / "enumeration_counts.json")
        c = fixture["phi_image"]["2,2"]
        self.phi_line = f"all={c['all']} image={c['image']} missing={c['missing']}".encode()
        rb = _read_json(env.bench / "expected_rb_classify.json")
        self.want_counts = {"assoc.json": {"found": fixture["assoc"]["2,3"]},
                            "rb0.json": {"algebras": rb["assoc"],
                                         "operators": rb["rb_operators"]}}

    def run_cli(self, argv):
        """One child process, waited for; a child still running after 60 s is killed."""
        return subprocess.run([sys.executable, "-m", "dendrop.cli", *argv],
                              cwd=self.dir, env=self.env.child_env,
                              capture_output=True, timeout=60)

    def prepare(self, seed):
        dp, Q = self.dp, self.dp.RATIONALS
        rng = random.Random(seed)
        self.dir.mkdir(parents=True, exist_ok=True)

        def write(name, obj):
            (self.dir / name).write_bytes(dp.emit_document(obj))

        catalogue = dp.builtin_catalogue()
        self.catalogue_names = [e.name for e in catalogue]
        d = rng.choice(catalogue).structure
        _, op = dp.canonical_operator_from_di(d)
        h = small_invertible(dp, rng, 2)
        moved = dp.compose_with_domain_iso(op, h, dp.pullback_domain(op.domain, h))
        write("di.json", d)
        write("t.json", dp.domain_dendriform_di(moved))
        write("h.json", h)
        write("alg.json", dp.star_product(d))
        self.want = {"op.json": dp.emit_document(op),
                     "dom.json": dp.emit_document(dp.domain_dendriform_di(op)),
                     "rng.json": dp.emit_document(dp.range_dendriform_di(op))}
        # Singular weight-one operator: `construct range` takes the quotient path.
        name, diag = rng.choice([s for s in RB_SOURCES if 0 in s[1]])
        qop = dp.rb_as_o_operator(rb_weight_one(dp, name, diag))
        write("rbq.json", qop)
        self.want_quotient = dp.range_dendriform_quotient(qop).structure
        # An F_3 dialgebra and a seeded GL_2(F_3) transport of it, for --search-fp.
        F3 = dp.prime_field(3)
        reducible = [e for e in catalogue
                     if all(Fraction(c).denominator % 3 for t in e.structure.tensors()
                            for _, c in t.nonzero_triples())]
        a = dp.dendriform_di_to_field(rng.choice(reducible).structure, F3)
        _, aop = dp.canonical_operator_from_di(a)
        g = dp.Matrix(F3, _invertible_2x2_mod(rng, 3))
        b = dp.domain_dendriform_di(
            dp.compose_with_domain_iso(aop, g, dp.pullback_domain(aop.domain, g)))
        write("fa.json", a)
        write("fb.json", b)
        self.search_pair = (a, b)
        # Operator equivalence: -id on k[x]/(x^2), range automorphism x -> c x.
        eop = dp.rb_as_o_operator(rb_weight_one(dp, "kx2", (-1, -1)))
        c = rng.choice(_DIAGONAL)
        f = dp.Matrix(Q, ((_ONE, Fraction(0)), (Fraction(0), c)))
        eop2, ge = dp.transported_pair(eop, f, small_invertible(dp, rng, 2))
        write("e1.json", eop)
        write("e2.json", eop2)
        write("f.json", f)
        write("g.json", ge)

        passed = self._stdout_has(b"PASS")
        self.commands = [
            ("catalogue", ["catalogue", "-o", "cat.json"], self._check_catalogue),
            ("validate", ["validate", "di.json"], passed),
            ("canonical", ["canonical", "di.json", "-o", "op.json"], self._same("op.json")),
            ("construct-domain", ["construct", "domain", "op.json", "-o", "dom.json"],
             self._same("dom.json")),
            ("construct-range", ["construct", "range", "op.json", "-o", "rng.json"],
             self._same("rng.json")),
            ("construct-range-quotient", ["construct", "range", "rbq.json", "-o", "q.json"],
             self._check_quotient),
            ("split-check", ["split-check", "rng.json", "alg.json"], passed),
            ("iso-witness", ["iso", "t.json", "di.json", "--witness", "h.json"], passed),
            ("iso-search-fp", ["iso", "fa.json", "fb.json", "--search-fp", "-o", "w.json"],
             self._check_search),
            ("equiv", ["equiv", "e1.json", "e2.json", "--f", "f.json", "--g", "g.json"],
             passed),
            # Two mid-length runs, so that the 90th percentile command falls
            # inside one command's samples instead of on the edge of the short ones.
            ("enumerate-assoc", ["enumerate", "--what", "assoc", "--dim", "2", "--prime", "3",
                                 "-o", "assoc.json"], self._counts("assoc.json")),
            ("enumerate-rb0", ["enumerate", "--what", "rb0", "--dim", "2", "--prime", "3",
                               "-o", "rb0.json"], self._counts("rb0.json")),
            ("enumerate-phi-image", ["enumerate", "--what", "phi-image", "--dim", "2",
                                     "--prime", "2", "--workers", str(self.workers),
                                     "-o", "phi.json"], self._check_phi),
        ]

    def prepare_once(self):
        """Serial bytes of the phi-image run, which the parallel run must reproduce;
        it also warms the interpreter start.  A failed serial run fails the
        parallel command's check in every pass."""
        proc = self.run_cli(["enumerate", "--what", "phi-image", "--dim", "2",
                             "--prime", "2", "--workers", "1", "-o", "serial.json"])
        self.serial = None
        if proc.returncode == 0 and self.phi_line in proc.stdout:
            self.serial = (self.dir / "serial.json").read_bytes()
        else:
            _fail(self.name, f"serial phi-image run: exit {proc.returncode}, "
                             f"stdout {proc.stdout[-200:]!r}")

    # output checks: each takes the finished process
    def _stdout_has(self, text):
        return lambda proc: text in proc.stdout

    def _same(self, name):
        return lambda proc: (self.dir / name).read_bytes() == self.want[name]

    def _counts(self, name):
        return lambda proc: (json.loads((self.dir / name).read_bytes())["payload"]["counts"]
                             == self.want_counts[name])

    def _payload(self, name):
        return self.dp.parse_document((self.dir / name).read_bytes()).payload

    def _check_catalogue(self, proc):
        payload = json.loads((self.dir / "cat.json").read_bytes())["payload"]
        return [item.get("name") for item in payload["items"]] == self.catalogue_names

    def _check_quotient(self, proc):
        return self._payload("q.json").items[0] == self.want_quotient

    def _check_search(self, proc):
        a, b = self.search_pair
        return self.dp.verify_dendriform_iso(a, b, self._payload("w.json")).passed

    def _check_phi(self, proc):
        return (self.phi_line in proc.stdout
                and (self.dir / "phi.json").read_bytes() == self.serial)

    def run_pass(self, tr) -> PassResult:
        for name in self.OUTPUTS:
            (self.dir / name).unlink(missing_ok=True)
        item_s, failed = [], 0
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        for name, argv, check in self.commands:
            t0 = time.perf_counter()
            with tr.span(f"cli.{name}"):
                proc = _guarded(self.name, self.run_cli, argv)
            item_s.append(time.perf_counter() - t0)
            if not (proc and proc.returncode == 0 and _guarded(self.name, check, proc)):
                detail = (f"exit {proc.returncode}, stderr "
                          f"{proc.stderr.decode(errors='replace')[-400:]!r}"
                          if proc else "did not finish")
                _fail(self.name, f"{name}: {detail}")
                failed += 1
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        digest = hashlib.sha256(b"".join(
            (self.dir / n).read_bytes() for n in self.OUTPUTS
            if (self.dir / n).exists())).hexdigest()
        return PassResult(item_s, len(self.commands), failed, {}, digest, cpu)


WORKLOADS = {cls.name: cls for cls in (FpDialgebras, FpRbClassify, QPipeline, CliSession)}
