"""The benchmark's workloads and the checks on their outputs.

Each workload has a fixed job that one repetition runs completely:

* ``sweep-t1``: ``run_sweep`` over the exhaustive T1 family for n <= 5
  (outputs pinned by digest) and over a seeded uniform sample of n = 6
  graphs. Many cheap equivalence checks, so per-call overhead dominates,
  and each graph is solved again for every k.
* ``sweep-t2``: ``run_sweep`` over the exhaustive T2 family for n <= 5 at
  one k per graph, k = 1 + seed % 5 (outputs pinned for each k). A few
  deep searches: the every-tenth-row spot check runs an exact
  independent-set search on 35-vertex conflict graphs. The T2 instance
  depends on k only through its threshold, so every k costs the same and
  one k keeps a repetition short enough to repeat within a run.
* ``solve-mix``: in-process ``arcseq`` command-line calls (classify, solve
  under every constraint kind, reduce) on files written at set-up. No
  independent-set search runs here, so this is the workload on which
  changes to ``mis`` and ``sweep`` should show no change.

A workload offers ``setup(workdir)`` (generate and write the inputs),
``job()`` (the timed part), ``outcome(raw)`` (the outputs and failures of
one repetition, per operation) and ``check(outputs)`` (independent
verification of one repetition's outputs, returning the failing keys).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import checks

ORACLES_PATH = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"

CSV_FIELDS = (
    "graph_id,n,m,connected,k,is_answer,lapcs_len,threshold,"
    "lapcs_answer,forward_ok,backward_ok"
).split(",")

# sha256 of the CSV and of the summary JSON that run_sweep wrote for the
# exhaustive family n = 1..N with the given k policy, at the commit that
# introduced this benchmark, and the row count. Any change to these bytes
# breaks the sweep contract.
SWEEP_PINS = {
    ("T1", 5, "all"): ("79998620d3eb9611f3d2d595b2cbe0ba5bec5267dd030da21a16f17f230aa159",
                       "8368715d1d9236ed420c70a6727a787826d7a3e200247eaebddcc30729496345", 5405),
    ("T1", 3, "all"): ("e41e8bccfb6bd8b04b4c7cb1d29b3557cf0821456d85aa1933aae8e65e99c42f",
                       "b09f827c7c85929c1374cce077e776ba15475ee8bdec493017abf58694a961ce", 29),
    ("T2", 5, 1): ("003ab4ddddaa61779eae8d17c49a9872572ae8c9015e863246be3c82873a4541",
                   "9afb8b4cbc23cf017f0ee88fe87093169b535d3ec79a90e94eb3f3d5bdb64cae", 1099),
    ("T2", 5, 2): ("a3051b43c2e647ee9612d976e4826364ec62a34f3f408f307fd6c61c865159e6",
                   "d7a55ea0be51b1012287493672322465d0f7b8ca82b10a053775df71466b4ca8", 1099),
    ("T2", 5, 3): ("3a76ddb6ed36f3f38a6c506a94659319abb21dc40ee55efbef9af27bcef057bb",
                   "84fcde71fd8afb782aa94291e92c812fcf3940a90f45aa354d8d521a9733b66a", 1099),
    ("T2", 5, 4): ("f9c2a0501b79132fb2c53e4ced43177f7a3d9670021a78b85939e0e1310a8519",
                   "0b2003ec3b7fcb092b84f0fb73854661e5e4482782a7d78dbcfaf548514a5591", 1099),
    ("T2", 5, 5): ("b6c16980752fcbba131fb74d6d324d7acc6e4575a24180c4c547a67a463984e7",
                   "8735ac7c1f47d8995a23017b7dc79df617d9b5dbcd1cb83c9f9d957280901664", 1099),
    ("T2", 3, 1): ("e81b2c683546dad63a6a991ab62cef7c5f1e8cf7d2dc8b139154abcfc73f27c3",
                   "55078257e83e165bf01388f64dd22732adf95a393b2f76fdeb9c050448db4c46", 11),
    ("T2", 3, 2): ("f38a4de8a2d808af1cb4191e8707f8cfab86fa5240969b444912902a1b599f1d",
                   "494fcd5849540f7e2cbb23141c81c79aa19945389ee43a70fde5e6c31d8fdbc9", 11),
    ("T2", 3, 3): ("2a006cb8bad696178166aeb4e228102a136ec79ae4a8ef06f30c46654b58a667",
                   "dd8be58fd49c7de0058309dd76d70abe959ef90bad1508d34cea589aeb1b38ee", 11),
    ("T2", 3, 4): ("7a2a62cdf5d5868344abd2453160febde6d57fefeb53f3279b7eb708e2551a88",
                   "da5368887fb7916b7b78ae0db5b1e6a1e42e65c543d228e3124f9978ebdb1ad5", 11),
    ("T2", 3, 5): ("c42fe34e9d48d53f9fe71fe02bed57343b103a483f8200562d8385c37e6425a0",
                   "a9b6ba1ce0af4bb95dce0f6d9f0f58adef4432bd8568aa503882c840df1f16f5", 11),
}


class Outcome(NamedTuple):
    """One repetition, per operation.

    outputs maps an operation key to its output text; failed holds the keys
    of operations that raised, exited with an unexpected code or broke a
    check that applies to every repetition; latencies_ms holds one entry per
    operation when operations are timed one by one.
    """

    outputs: dict[str, str]
    failed: set[str]
    latencies_ms: list[float]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class SweepSize:
    exhaustive_n: int
    seeded_k: bool  # one k per graph, 1 + seed % 5, instead of every k
    sample_n: int
    sample_count: int


class SweepWorkload:
    """Exhaustive sweep with pinned outputs, plus an optional seeded sample.

    An operation is one CSV row. The seed either picks the one k swept per
    graph or draws the sample: G(n, 1/2) graphs, the uniform distribution
    over labelled n-vertex graphs.
    """

    def __init__(self, theorem: str, size: SweepSize, seed: int):
        self.theorem, self.size, self.seed = theorem, size, seed
        self.k_policy = 1 + seed % 5 if size.seeded_k else "all"
        pin = SWEEP_PINS[(theorem, size.exhaustive_n, self.k_policy)]
        self.rows = {"exh": pin[2], "smp": size.sample_count * size.sample_n}
        self.ops_per_job = sum(self.rows.values())
        self.notes: list[str] = []

    def setup(self, workdir: Path) -> None:
        # Calls go through the module so that the traced run sees them.
        self._sweep = sweep = importlib.import_module("arcseq.sweep")
        s = self.size
        self._configs = {
            "exh": sweep.SweepConfig(
                theorem=self.theorem,
                n_range=(1, s.exhaustive_n),
                k_policy=self.k_policy,
                max_exhaustive_n=s.exhaustive_n,
                output_csv=workdir / "exhaustive.csv",
            ),
        }
        if s.sample_count:
            self._configs["smp"] = sweep.SweepConfig(
                theorem=self.theorem,
                n_range=(s.sample_n, s.sample_n),
                graph_source="random",
                random_count=s.sample_count,
                edge_probability=0.5,
                seed=self.seed,
                output_csv=workdir / "sample.csv",
            )
        workdir.mkdir(parents=True, exist_ok=True)

    def job(self) -> dict[str, str]:
        errors = {}
        for part, cfg in self._configs.items():
            try:
                self._sweep.run_sweep(cfg)
            except Exception as exc:  # a crashed sweep fails all its rows; the run goes on
                errors[part] = repr(exc)
        return errors

    def outcome(self, errors: dict[str, str]) -> Outcome:
        outputs: dict[str, str] = {}
        failed: set[str] = set()
        for part, cfg in self._configs.items():
            keys = [f"{part}:{i}" for i in range(self.rows[part])]
            try:
                csv_text = cfg.output_csv.read_text()
                summary_text = cfg.output_summary.read_text()
            except OSError as exc:
                errors.setdefault(part, repr(exc))
            finally:
                cfg.output_csv.unlink(missing_ok=True)
                cfg.output_summary.unlink(missing_ok=True)
            problem = errors.get(part) or self._problem(part, csv_text, summary_text)
            if problem:
                self._note(f"{part}: {problem}")
                failed.update(keys)
                continue
            body = csv_text.splitlines()[1:]
            outputs.update(zip(keys, body))
            failed.update(keys[len(body):])
        return Outcome(outputs, failed, [])

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _problem(self, part: str, csv_text: str, summary_text: str) -> str | None:
        """A fault of one repetition that spoils every row of the sweep."""
        if part == "exh":
            csv_pin, summary_pin, _ = SWEEP_PINS[(self.theorem, self.size.exhaustive_n, self.k_policy)]
            if _sha256(csv_text) != csv_pin:
                return "CSV differs from the pinned digest"
            if _sha256(summary_text) != summary_pin:
                return "summary JSON differs from the pinned digest"
            return None
        lines = csv_text.splitlines()
        if not lines or lines[0] != ",".join(CSV_FIELDS):
            return "unexpected CSV header"
        rows = [dict(zip(CSV_FIELDS, line.split(","))) for line in lines[1:]]
        expected = {
            "rows": self.rows["smp"],
            "skipped": 0,
            "forward_failures": sum(r.get("forward_ok") != "true" for r in rows),
            "backward_failures": sum(r.get("backward_ok") != "true" for r in rows),
        }
        try:
            summary = json.loads(summary_text)
            spot = summary["spot_checks"]
            for key, value in expected.items():
                if summary[key] != value:
                    return f"summary {key} = {summary[key]}, expected {value}"
            if spot["budget_skipped"] or spot["sampled"] != spot["verified"]:
                return f"spot checks {spot}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed summary JSON: {exc!r}"
        return None

    def check(self, outputs: dict[str, str]) -> set[str]:
        """Verify every field of every row from the graph alone.

        is_answer comes from a brute-force independence number, lapcs_len
        from the closed form of each reduction's optimum.
        """
        s = self.size
        graphs = {}
        for n in range(1, s.exhaustive_n + 1):
            for mask in range(1 << len(checks.edge_universe(n))):
                graphs[f"g{n}-{mask}"] = (n, checks.edges_from_mask(n, mask))
        draws = checks.gnp_draws(self.seed, s.sample_n, s.sample_count, 0.5)
        for idx, edges in enumerate(draws):
            graphs[f"r{s.sample_n}-{idx}"] = (s.sample_n, edges)

        alphas: dict[str, int] = {}
        bad = set()
        for key, line in outputs.items():
            row = _parse_row(line)
            if row is None or row["graph_id"] not in graphs:
                bad.add(key)
                continue
            n, edges = graphs[row["graph_id"]]
            if row["graph_id"] not in alphas:
                alphas[row["graph_id"]] = checks.independence_number(n, edges)
            if not self._row_ok(row, n, edges, alphas[row["graph_id"]]):
                bad.add(key)
            elif key.startswith("smp:"):
                # Sample rows come graph by graph, k = 1..n.
                i = int(key[4:])
                if (row["graph_id"], row["k"]) != (f"r{n}-{i // n}", i % n + 1):
                    bad.add(key)
        return bad

    def _row_ok(self, row: dict, n: int, edges, alpha: int) -> bool:
        k = row["k"]
        if self.theorem == "T1":
            threshold = k
        else:
            threshold = k * (n + 2) if k <= n else k
        expected = {
            "n": n,
            "m": len(edges),
            "connected": checks.is_connected(n, edges),
            "threshold": threshold,
            "is_answer": alpha >= k,
        }
        if any(row[f] != v for f, v in expected.items()):
            return False
        lapcs = row["lapcs_len"]
        if type(lapcs) is not int or row["lapcs_answer"] != (lapcs >= threshold):
            return False
        # Both theorems claim the forward direction; only T2 may fail backward.
        if not row["forward_ok"] or row["backward_ok"] != (not row["lapcs_answer"] or row["is_answer"]):
            return False
        if self.theorem == "T1":
            return lapcs == alpha
        # T2: only the S1 edge arcs conflict, and no two share a position, so
        # the conflict graph is a matching with one edge per graph edge.
        return lapcs == (1 if k > n else n * (n + 2) - len(edges))


def _parse_row(line: str) -> dict | None:
    cells = line.split(",")
    if len(cells) != len(CSV_FIELDS):
        return None
    row = {}
    for field, cell in zip(CSV_FIELDS, cells):
        if cell in ("true", "false"):
            row[field] = cell == "true"
        elif cell.isdigit():
            row[field] = int(cell)
        else:
            row[field] = cell
    return row


@dataclass(frozen=True)
class MixSize:
    lcs_len: int
    cross_len: int
    path_lens: tuple[int, ...]
    rna_len: int
    small_per_cell: int
    small_len: tuple[int, int]
    reduce_graphs: int


LEVELS = ("plain", "chain", "nested", "crossing", "unlimited")
SMALL_CONSTRAINTS = (("unconstrained", None), ("fragment", 4), ("diagonal", 3))


def _random_arcs(rng: random.Random, n: int, level: str) -> list[tuple[int, int]]:
    """Arcs that satisfy the restrictions of `level` (possibly a stricter one)."""
    arcs: set[tuple[int, int]] = set()
    if n < 2 or level == "plain":
        return []
    if level == "chain":
        pos = 1
        while pos < n:
            if rng.random() < 0.3:
                end = rng.randint(pos + 1, n)
                arcs.add((pos, end))
                pos = end + 1
            else:
                pos += 1
    elif level == "nested":
        arcs = set(_stack_arcs(rng, n, 0.3))
    elif level == "crossing":
        positions = list(range(1, n + 1))
        rng.shuffle(positions)
        for a, b in zip(positions[0::2], positions[1::2]):
            if rng.random() < 0.6:
                arcs.add((min(a, b), max(a, b)))
    else:
        for _ in range(max(1, int(0.3 * n))):
            i = rng.randint(1, n - 1)
            arcs.add((i, rng.randint(i + 1, n)))
    return sorted(arcs)


def _stack_arcs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Pair positions like bases in an RNA fold: arcs nest, never cross."""
    arcs, stack = [], []
    for pos in range(1, n + 1):
        r = rng.random()
        if r < density:
            stack.append(pos)
        elif r < 2 * density and stack:
            arcs.append((stack.pop(), pos))
    return sorted(arcs)


def _word(rng: random.Random, n: int, alphabet: str = "acgu") -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


class MixWorkload:
    """Command-line calls on fixed files; an operation is one call.

    Set-up writes the inputs and records, per operation, how to verify its
    output. The expected answers of the first repetition are checked by
    independent means (brute force, a plain DP, closed forms, the documented
    constructions); every later repetition must print the same bytes.
    """

    def __init__(self, size: MixSize, seed: int):
        self.size, self.seed = size, seed
        self.notes: list[str] = []

    def setup(self, workdir: Path) -> None:
        self._cli = importlib.import_module("arcseq.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(self.seed)
        s = self.size
        self.ops: list[tuple[str, list[str], list[Path]]] = []
        self._verify = {}

        def write(name: str, text: str) -> str:
            path = workdir / name
            path.write_text(text)
            return str(path)

        def add(key, argv, verify, files=()):
            self.ops.append((key, argv, list(files)))
            self._verify[key] = verify

        seq = _word(rng, s.rna_len)
        arcs = _stack_arcs(rng, s.rna_len, 0.3)
        nested = any(a2 > b1 for (_, a2), (b1, _) in zip(arcs, arcs[1:]))
        level = "nested" if nested else ("chain" if arcs else "plain")
        add("classify:rna", ["classify", write("rna.txt", checks.sequence_text(seq, arcs))],
            lambda out, level=level: out == level + "\n")

        s1, s2 = _word(rng, s.lcs_len), _word(rng, s.lcs_len)
        add("solve:lcs",
            ["solve", write("lcs1.txt", s1 + "\n"), write("lcs2.txt", s2 + "\n"), "--unconstrained"],
            lambda out, s1=s1, s2=s2: _lcs_ok(out, s1, s2))

        s1 = _word(rng, s.cross_len)
        s2 = "".join(ch if rng.random() < 0.9 else rng.choice("acgu") for ch in s1)
        arcs1 = _random_arcs(rng, s.cross_len, "crossing")
        arcs2 = _random_arcs(rng, s.cross_len, "crossing")
        add("solve:crossing",
            ["solve", write("cross1.txt", checks.sequence_text(s1, arcs1)),
             write("cross2.txt", checks.sequence_text(s2, arcs2)), "--fragment", "1"],
            lambda out, a=(s1, arcs1, s2, arcs2): _identity_ok(out, *a))

        for idx, length in enumerate(s.path_lens):
            line = "a" * length
            odd = [(p, p + 1) for p in range(1, length, 2)]
            even = [(p, p + 1) for p in range(2, length, 2)]
            flag = ["--fragment", "1"] if idx % 2 == 0 else ["--diagonal", "0"]
            expect = f"{(length + 1) // 2}\n" + "".join(f"{p} {p}\n" for p in range(1, length + 1, 2))
            add(f"solve:path{length}",
                ["solve", write(f"path{length}a.txt", checks.sequence_text(line, odd)),
                 write(f"path{length}b.txt", checks.sequence_text(line, even))] + flag,
                lambda out, expect=expect: out == expect)

        lo, hi = s.small_len
        for level in LEVELS:
            for kind, c in SMALL_CONSTRAINTS:
                for t in range(s.small_per_cell):
                    n1, n2 = rng.randint(lo, hi), rng.randint(lo, hi)
                    inst = (_word(rng, n1), _random_arcs(rng, n1, level),
                            _word(rng, n2), _random_arcs(rng, n2, level), kind, c)
                    key = f"solve:{level}-{kind}-{t}"
                    flag = ["--unconstrained"] if c is None else [f"--{kind}", str(c)]
                    add(key,
                        ["solve", write(f"{key[6:]}.1.txt", checks.sequence_text(inst[0], inst[1])),
                         write(f"{key[6:]}.2.txt", checks.sequence_text(inst[2], inst[3]))] + flag,
                        lambda out, inst=inst: self._small_ok(out, inst))

        for g in range(s.reduce_graphs):
            n = rng.randint(6, 12)
            edges = [e for e in checks.edge_universe(n) if rng.random() < 0.4]
            k = rng.randint(1, n + 1)
            graph = write(f"graph{g}.txt", checks.graph_text(n, edges))
            for theorem in (1, 2):
                prefix = workdir / f"reduced{g}-t{theorem}"
                a1, a2, threshold = checks.reduction_texts(theorem, n, edges, k)
                add(f"reduce:{g}-t{theorem}",
                    ["reduce", graph, str(k), "--theorem", str(theorem), "--out", str(prefix)],
                    lambda out, e=f"threshold {threshold}\n{a1}{a2}": out == e,
                    files=[Path(f"{prefix}.a1.txt"), Path(f"{prefix}.a2.txt")])
        self.ops_per_job = len(self.ops)

    def job(self) -> list[tuple[str, object, str, float]]:
        main, results = self._cli.main, []
        for key, argv, _ in self.ops:
            buf = io.StringIO()
            t0 = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
            except Exception as exc:  # a crash is one failed operation; the run goes on
                code = repr(exc)
            results.append((key, code, buf.getvalue(), (time.perf_counter_ns() - t0) / 1e6))
        return results

    def outcome(self, results) -> Outcome:
        outputs, failed, latencies = {}, set(), []
        for (key, code, out, ms), (_, _, files) in zip(results, self.ops):
            for path in files:
                try:
                    out += path.read_text()
                    path.unlink()
                except OSError:
                    code = code or "output file missing"
            if code != 0:
                self._note(f"{key}: exit {code}")
                failed.add(key)
            outputs[key] = out
            latencies.append(ms)
        return Outcome(outputs, failed, latencies)

    def _note(self, text: str) -> None:
        if len(self.notes) < 50 and text not in self.notes:
            self.notes.append(text)

    def check(self, outputs: dict[str, str]) -> set[str]:
        spec = importlib.util.spec_from_file_location("arcseq_bench_oracles", ORACLES_PATH)
        self._oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self._oracles)
        bad = set()
        for key, out in outputs.items():
            try:
                ok = self._verify[key](out)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                self._note(f"{key}: wrong output")
                bad.add(key)
        return bad

    def _small_ok(self, out: str, inst) -> bool:
        """Length against tests/oracles.py, witness against the lexmin brute force."""
        s1, arcs1, s2, arcs2, kind, c = inst
        core = importlib.import_module("arcseq.core")
        oracle = self._oracles.brute_lapcs(
            core.AnnotatedSequence(s1, frozenset(arcs1)),
            core.AnnotatedSequence(s2, frozenset(arcs2)),
            core.MatchConstraint(kind, c),
        )
        best = checks.lexmin_lapcs(s1, set(arcs1), s2, set(arcs2), kind, c)
        length, pairs = checks.parse_solve_output(out)
        return length == oracle == len(best) and pairs == best


def _lcs_ok(out: str, s1: str, s2: str) -> bool:
    length, pairs = checks.parse_solve_output(out)
    prev = (0, 0)
    for i, j in pairs:
        if i <= prev[0] or j <= prev[1] or j > len(s2) or s1[i - 1] != s2[j - 1]:
            return False
        prev = (i, j)
    return length == len(pairs) == checks.lcs_length(s1, s2)


def _identity_ok(out: str, s1: str, arcs1, s2: str, arcs2) -> bool:
    optimum, cands, adj = checks.identity_optimum(s1, arcs1, s2, arcs2)
    length, pairs = checks.parse_solve_output(out)
    chosen = {i for i, j in pairs if i == j and i in cands}
    independent = all(not (adj[p] & chosen) for p in chosen)
    return independent and length == len(pairs) == len(chosen) == optimum


SWEEP_T1 = {"full": SweepSize(5, False, 6, 600), "toy": SweepSize(3, False, 4, 5)}
SWEEP_T2 = {"full": SweepSize(5, True, 0, 0), "toy": SweepSize(3, True, 0, 0)}
MIX = {
    "full": MixSize(1000, 100_000, (1000, 2000), 8000, 20, (8, 16), 10),
    "toy": MixSize(40, 300, (20, 30), 200, 1, (4, 7), 1),
}


def make(name: str, seed: int, scale: str = "full"):
    """The workload called `name`, generated from `seed`, at `scale`."""
    if name == "sweep-t1":
        return SweepWorkload("T1", SWEEP_T1[scale], seed)
    if name == "sweep-t2":
        return SweepWorkload("T2", SWEEP_T2[scale], seed)
    if name == "solve-mix":
        return MixWorkload(MIX[scale], seed)
    raise KeyError(name)


NAMES = ("sweep-t1", "sweep-t2", "solve-mix")
