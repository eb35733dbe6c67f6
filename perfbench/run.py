"""Benchmark command: generate inputs, run one workload, check it, report.

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. See README.md in this directory for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import brute
import gen
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("season-build", "search-warm", "cli-session")
SETUP_SAMPLES = 15
# child.calibration_ms() on the reference machine (see README.md); timings
# are reported at the speed at which the loop takes this long
REFERENCE_CAL_MS = 0.65
CHILD_GRACE_S = 60  # beyond --seconds: set-up, one round past the deadline


class Inputs:
    """Generated files plus the facts the checks need about them."""

    def __init__(self, workload: str, seed: int, size: str, run_dir: Path):
        self.workload, self.run_dir = workload, run_dir
        sizes = gen.SIZES[size]
        if workload == "season-build":
            self.season = gen.season(seed, sizes["season"])
            self.raw = run_dir / "raw.tsv"
            self.raw.write_text("".join(d.tsv() for d in self.season.docs), encoding="utf-8")
            self.month_docs = {m: self.season.month_docs(m) for m in self.season.months}
            self.train_flags = dict(gen.TRAIN_FLAGS, seed=seed)
        else:
            kind = "search" if workload == "search-warm" else "cli"
            self.served = gen.served(seed, sizes[kind], kind)
            self.month_file = run_dir / f"{self.served.month}.tsv"
            self.month_file.write_text("".join(d.tsv() for d in self.served.docs),
                                       encoding="utf-8")
            self.model = run_dir / "model.vec"
            self.model.write_text("".join(self.served.vector_lines()), encoding="utf-8")
            self.index = run_dir / "month.idx"
            self.corpus = brute.Corpus(self.served.docs)
            self.vectors = brute.Vectors(self.served.terms, self.served.vectors)

    def spec(self, mode: str, seconds: int, trace: bool, tag: str) -> Path:
        spec = {"workload": self.workload, "mode": mode, "seconds": seconds, "trace": trace,
                "src": str(ROOT / "src"), "result": str(self.run_dir / f"result-{tag}.json")}
        if self.workload == "season-build":
            spec.update(raw=str(self.raw), months=self.season.months,
                        train_flags=self.train_flags, work=str(self.run_dir / f"work-{tag}"))
        else:
            spec.update(month_file=str(self.month_file), model=str(self.model),
                        index=str(self.index), ops=self.served.ops,
                        work=str(self.run_dir / f"work-{tag}"))
        path = self.run_dir / f"spec-{tag}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path


def run_child(inputs: Inputs, mode: str, seconds: int, trace: bool, tag: str) -> dict:
    spec = inputs.spec(mode, seconds, trace, tag)
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process failed ({proc.returncode}):\n{proc.stderr}")
    if mode == "prep":
        return {}
    return json.loads((inputs.run_dir / f"result-{tag}.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------- checks


def check_season(inputs: Inputs, result: dict) -> list[str]:
    season, errors = inputs.season, []
    ingest = result["outputs"][0]
    printed = [line.split("\t")[:2] for line in ingest["stdout"].splitlines()]
    want = [[m, str(len(inputs.month_docs[m]))] for m in season.months]
    if ingest["code"] == 0 and printed != want:
        errors.append(f"ingest printed months {printed}, expected {want}")
    for call in result["outputs"]:
        if "WARNING" in call["stderr"]:
            errors.append(f"unexpected warning: {call['stderr'].strip()}")
    errors += result["mismatches"]
    flags = inputs.train_flags
    for month in season.months:
        docs = inputs.month_docs[month]
        saved = result["saved_index"][month]
        if "error" in saved:
            errors.append(f"{month}.idx does not load: {saved['error']}")
        else:
            expected_df = brute.Corpus(docs).df
            if saved["doc_count"] != len(docs):
                errors.append(f"{month}.idx holds {saved['doc_count']} documents, not {len(docs)}")
            if saved["doc_freq"] != expected_df:
                wrong = sorted(set(saved["doc_freq"].items()) ^ set(expected_df.items()))[:5]
                errors.append(f"{month}.idx document frequencies differ, e.g. {wrong}")
        terms, rows, (vocab, dim) = brute.read_vectors(
            os.path.join(result["artifacts"], f"{month}.vec"))
        want_vocab = gen.vocabulary_size(docs, flags["min_count"])
        if vocab != want_vocab or len(terms) != want_vocab:
            errors.append(f"{month}.vec has {vocab} rows (header) / {len(terms)} (lines), "
                          f"expected {want_vocab} terms with count >= {flags['min_count']}")
        if dim != flags["dim"] or any(len(r) != dim for r in rows):
            errors.append(f"{month}.vec rows do not all have {flags['dim']} components")
        if not all(math.isfinite(x) for r in rows for x in r):
            errors.append(f"{month}.vec holds a non-finite component")
        a, b, control = season.planted[month]
        vecs = brute.Vectors(terms, rows)
        if not all(t in vecs.row for t in (a, b, control)):
            errors.append(f"{month}.vec lacks a planted term among {a}, {b}, {control}")
            continue
        cos_ab, cos_ac = (float(vecs.cosines(a)[vecs.row[t]]) for t in (b, control))
        if not cos_ab > cos_ac:
            errors.append(f"{month}: sim({a},{b})={cos_ab:.4f} is not above "
                          f"sim({a},{control})={cos_ac:.4f}")
    return errors


def _expected_query(inputs: Inputs, op: dict):
    return inputs.vectors.expand(op["seed"].split(), op["k"], op["min_sim"])[1]


def check_search(inputs: Inputs, result: dict) -> list[str]:
    errors = list(result["mismatches"])
    for i, (op, out) in enumerate(zip(inputs.served.ops, result["outputs"])):
        if "error" in out:
            continue  # counted as failed
        where = f"op {i} ({op['op']} {op['seed']!r})"
        weights = _expected_query(inputs, op)
        seeds = op["seed"].split()
        expansion = {t: w for t, w in weights.items() if t not in seeds}
        errors += brute.check_weights(out["expansion"], expansion, brute.SCORE_TOL, where)
        if op["op"] == "retrieve":
            kept = inputs.corpus.kept(weights, op["scorer"], op["threshold"])
            rows = [(d, s, tuple(map(tuple, m))) for d, s, m in out["results"]]
            errors += brute.check_ranking(rows, kept, op["limit"], brute.SCORE_TOL, where)
        else:
            seed_hits, hits, pct = inputs.corpus.recall(seeds, weights, op["scorer"],
                                                        op["threshold"])
            if (out["seed_hits"], out["expanded_hits"]) != (seed_hits, hits) or \
                    abs(out["increase_pct"] - pct) > brute.SCORE_TOL:
                errors.append(f"{where}: hits {out['seed_hits']}->{out['expanded_hits']} "
                              f"({out['increase_pct']}%), expected {seed_hits}->{hits} ({pct}%)")
    return errors


def check_cli(inputs: Inputs, result: dict) -> list[str]:
    errors = list(result["mismatches"])
    tol = brute.PRINTED_TOL
    for i, (op, out) in enumerate(zip(inputs.served.ops, result["outputs"])):
        if out["code"] != 0:
            continue  # counted as failed
        where = f"call {i} ({op['op']})"
        if out["stderr"]:
            errors.append(f"{where}: unexpected stderr {out['stderr'].strip()!r}")
        text = out["stdout"]
        if op["op"] == "neighbors":
            want = inputs.vectors.neighbours(op["word"], op["k"], op["min_sim"])
            got = brute.parse_neighbors(text)
            if [t for t, _ in got] != [t for t, _ in want] or any(
                    abs(a - b) > tol for (_, a), (_, b) in zip(got, want)):
                errors.append(f"{where}: neighbours {got}, expected {want}")
            continue
        seeds = op["seed"].split()
        weights = _expected_query(inputs, op)
        expansion = {t: w for t, w in weights.items() if t not in seeds}
        if op["op"] == "expand":
            got_seeds, got, order = brute.parse_expand(text)
            errors += brute.check_weights(got, expansion, tol, where)
            if got_seeds != seeds or order != sorted(expansion, key=lambda t: (-expansion[t], t)):
                errors.append(f"{where}: printed order {got_seeds + order} is not the expected")
        elif op["op"] == "search":
            kept = inputs.corpus.kept(weights, op["scorer"], op["threshold"])
            errors += brute.check_ranking(brute.parse_search(text), kept, op["limit"], tol, where)
        else:
            report = brute.parse_eval(text)
            errors += brute.check_weights(report["expansion"], expansion, tol, where)
            seed_hits, hits, pct = inputs.corpus.recall(seeds, weights, op["scorer"],
                                                        op["threshold"])
            if (report.get("seed_hits"), report.get("expanded_hits")) != (str(seed_hits), str(hits)) \
                    or abs(float(report.get("increase_pct", "nan")) - pct) > brute.SCORE_TOL:
                errors.append(f"{where}: report {report}, expected {seed_hits}->{hits} ({pct}%)")
    return errors


CHECKS = {"season-build": check_season, "search-warm": check_search, "cli-session": check_cli}


# ---------------------------------------------------------------- metrics


def _p(values, q: float) -> float:
    """q-quantile by the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def _timed_s(result: dict) -> float:
    return sum(ms for _, ms, _ in result["op_ms"]) / 1e3


def reference_ms(result: dict, key: str = "op_ms") -> dict[int, float]:
    """Each operation's time at reference speed.

    That is the median, over the run's (traced) rounds, of the operation's
    time divided by the calibration loop's time just before it, times
    REFERENCE_CAL_MS. The machine's speed swings by up to 1.5x within
    seconds as its neighbours' load comes and goes; the calibration loop
    swings with it, so the ratio holds the program's own cost.
    """
    ratios: dict[int, list[float]] = {}
    for op, ms, cal in result[key]:
        ratios.setdefault(op, []).append(ms / cal)
    return {op: REFERENCE_CAL_MS * statistics.median(r) for op, r in ratios.items()}


def artifact_bytes(inputs: Inputs, result: dict) -> tuple[int, int, int]:
    """(index bytes, vector bytes written by the program, documents)."""
    if inputs.workload == "season-build":
        folder = Path(result["artifacts"])
        idx = sum((folder / f"{m}.idx").stat().st_size for m in inputs.season.months)
        vec = sum((folder / f"{m}.vec").stat().st_size for m in inputs.season.months)
        return idx, vec, len(inputs.season.docs)
    return inputs.index.stat().st_size, 0, len(inputs.served.docs)


def end_to_end(inputs: Inputs, result: dict, setup: list[float]) -> dict:
    op_ms = reference_ms(result)
    if inputs.workload == "season-build":
        units = len(inputs.season.docs)
        lat = [ms for op, ms in op_ms.items() if op > 0]  # month builds, not ingest
    else:
        units = len(inputs.served.ops)
        lat = list(op_ms.values())
    idx, vec, docs = artifact_bytes(inputs, result)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "throughput_per_s": units / (sum(op_ms.values()) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "artifact_bytes_per_doc": (idx + vec) / docs,
    }


class Counts:
    """Work counts for traced calls, computed from the generated inputs."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._cache: dict = {}

    def _docs_of(self, name: str) -> int:
        stem = Path(name).stem
        if self.inputs.workload == "season-build":
            if stem in self.inputs.month_docs:
                return len(self.inputs.month_docs[stem])
            return len(self.inputs.season.docs)
        return len(self.inputs.served.docs)

    def docs(self, attrs) -> int:
        return self._docs_of(attrs.get("path") or attrs["month"])

    def rows(self, attrs) -> int:
        if self.inputs.workload == "season-build":
            docs = self.inputs.month_docs[Path(attrs["path"]).stem]
            return gen.vocabulary_size(docs, self.inputs.train_flags["min_count"])
        return len(self.inputs.served.terms)

    def pair_updates(self, attrs) -> int:
        flags = self.inputs.train_flags
        docs = self.inputs.month_docs[attrs["month"]]
        return gen.training_pairs(docs, flags["window"], flags["min_count"]) * flags["epochs"]

    def proposed_merged(self, attrs) -> tuple[int, int]:
        seeds = [t for s in attrs["seed"] for t in s.split()]
        proposed, weights = self.inputs.vectors.expand(seeds, attrs["k"], attrs["min_sim"])
        return sum(len(p) for p in proposed.values()), len(weights) - len(set(seeds))

    def candidates_kept(self, attrs) -> tuple[int, int]:
        weights = {t: 1.0 for t in attrs["seed_terms"]}
        weights.update(attrs["expansion"])
        key = json.dumps([weights, attrs["scorer"], attrs["threshold"]], sort_keys=True)
        if key not in self._cache:
            corpus = self.inputs.corpus
            self._cache[key] = (corpus.candidates(weights),
                                len(corpus.kept(weights, attrs["scorer"], attrs["threshold"])))
        return self._cache[key]


def _as_metrics(values: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def per_layer(inputs: Inputs, traced: dict) -> dict:
    """Layer metrics from the traced run's spans; 0 where a layer did no work."""
    spans = traced["spans"]
    own = self_times(spans)
    counts = Counts(inputs)
    by_name: dict[str, list] = {}
    for span, self_s in zip(spans, own):
        by_name.setdefault(span[0], []).append((span[2] - span[1], self_s, span[4]))

    def durations(name):
        return [d for d, _, _ in by_name.get(name, [])]

    def mean_ms(name):
        d = durations(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def rate(name, count):
        calls = by_name.get(name, [])
        total = sum(d for d, _, _ in calls)
        return sum(count(a) for _, _, a in calls) / total if total else 0.0

    m = {
        "corpus.ingest_lines_per_s": rate("corpus.ingest", counts.docs),  # a line per doc
        "corpus.segment_ms": mean_ms("corpus.segment_by_month"),
        "embedding.train_s": mean_ms("embedding.train") / 1e3,
        "embedding.train_pairs_per_s": rate("embedding.train", counts.pair_updates),
        "embedding.save_vectors_ms": mean_ms("embedding.save_vectors"),
        "embedding.load_vectors_ms": mean_ms("embedding.load_vectors"),
        "embedding.load_rows_per_s": rate("embedding.load_vectors", counts.rows),
        "embedding.most_similar_ms": mean_ms("embedding.most_similar"),
        "index.build_docs_per_s": rate("index.build_index", counts.docs),
        "index.save_ms": mean_ms("index.save_index"),
        "index.load_ms": mean_ms("index.load_index"),
        "index.load_docs_per_s": rate("index.load_index", counts.docs),
        "expansion.expand_ms": mean_ms("expansion.expand_query"),
        "evaluation.recall_increase_ms": mean_ms("evaluation.recall_increase"),
    }
    idx, _, docs = artifact_bytes(inputs, traced)
    m["index.file_bytes_per_doc"] = idx / docs

    expands = [counts.proposed_merged(a) for _, _, a in by_name.get("expansion.expand_query", [])]
    proposed = sum(p for p, _ in expands)
    m["expansion.candidates_per_query"] = proposed / len(expands) if expands else 0.0
    m["expansion.accepted_ratio"] = sum(g for _, g in expands) / proposed if proposed else 0.0

    retrieves = durations("ranking.retrieve")
    scanned = [counts.candidates_kept(a) for _, _, a in by_name.get("ranking.retrieve", [])]
    candidates = sum(c for c, _ in scanned)
    m["ranking.retrieve_p50_ms"] = 1e3 * statistics.median(retrieves) if retrieves else 0.0
    m["ranking.retrieve_p90_ms"] = 1e3 * _p(retrieves, 0.9) if retrieves else 0.0
    m["ranking.candidates_per_query"] = candidates / len(scanned) if scanned else 0.0
    m["ranking.us_per_candidate"] = 1e6 * sum(retrieves) / candidates if candidates else 0.0
    m["ranking.kept_ratio"] = sum(k for _, k in scanned) / candidates if candidates else 0.0

    cli_calls = [(s[4]["command"], s[2] - s[1], own[i]) for i, s in enumerate(spans)
                 if s[0] == "cli.main"]
    for command in ("ingest", "train", "index", "search", "eval", "expand", "neighbors"):
        times = [d for c, d, _ in cli_calls if c == command]
        m[f"cli.{command}_ms"] = 1e3 * sum(times) / len(times) if times else 0.0
    m["cli.self_ms"] = 1e3 * sum(o for _, _, o in cli_calls) / len(cli_calls) if cli_calls else 0.0

    measured = traced["setup_s"] + _timed_s(traced)
    for layer in ("corpus", "embedding", "index", "expansion", "ranking", "evaluation", "cli"):
        layer_self = sum(o for s, o in zip(spans, own) if s[0].split(".")[0] == layer)
        m[f"{layer}.self_pct"] = 100.0 * layer_self / measured

    # the run alternated traced and untraced rounds of the same operations
    with_spans = sum(reference_ms(traced).values())
    without = sum(reference_ms(traced, "untraced_op_ms").values())
    m["trace.overhead_pct"] = 100.0 * (with_spans / without - 1.0)
    return m


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke run")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and waits for the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eventsearch" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'eventsearch'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench_out"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        # the generator and the trainer's --seed both need a non-negative seed
        inputs = Inputs(args.workload, args.seed % 2**32, args.size, run_dir)
        if args.workload != "season-build":
            run_child(inputs, "prep", 0, False, "prep")
        result = run_child(inputs, "run", args.seconds, bool(args.trace), "run")
        errors = CHECKS[args.workload](inputs, result)
        attempted, failed = result["attempted"], result["failed"]
        if args.trace:
            metrics = _as_metrics(per_layer(inputs, result), manifest["per_layer"])
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "spans": result["spans"]}), encoding="utf-8")
        else:
            setup = [run_child(inputs, "setup", 0, False, f"setup{i}")["setup_s"]
                     for i in range(SETUP_SAMPLES - 1)]
            setup.append(result["setup_s"])
            metrics = _as_metrics(end_to_end(inputs, result, setup), manifest["end_to_end"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
