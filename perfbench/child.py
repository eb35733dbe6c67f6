"""One workload in a fresh process: set-up, the timed closed loop, outputs.

Run by ``run.py`` as ``python3 child.py SPEC.json``; never by hand. The
spec names the workload, the input files and the mode:

* ``prep``  builds the served month's index through the CLI, untimed;
* ``setup`` measures set-up only (import, plus loading what is served);
* ``run``   measures set-up, then runs whole rounds of the workload's fixed
  operations, one at a time, until ``seconds`` have passed. With ``trace``
  set, every other round runs with the spans of ``tracing.py`` in place.

The result goes to the spec's ``result`` path as JSON. This process only
calls the program; ``run.py`` checks what it returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter


def _cli_call(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def _scorer_flags(scorer: dict) -> list[str]:
    if scorer["kind"] == "bm25":
        return ["--scorer", "bm25", "--bm25-k1", repr(scorer["k1"]), "--bm25-b", repr(scorer["b"])]
    return ["--scorer", "tfidf"]


def cli_argv(op: dict, index: str, model: str) -> list[str]:
    k = ["--k", str(op["k"]), "--min-sim", repr(op["min_sim"])]
    if op["op"] == "neighbors":
        return ["neighbors", "--model", model, "--word", op["word"], *k]
    if op["op"] == "expand":
        return ["expand", "--model", model, "--seed", op["seed"], *k]
    argv = [op["op"], "--index", index, "--model", model, "--seed", op["seed"], *k,
            *_scorer_flags(op["scorer"]), "--threshold", repr(op["threshold"])]
    if op.get("limit") is not None:
        argv += ["--limit", str(op["limit"])]
    return argv


def calibration_ms() -> float:
    """Time of a fixed loop of small numpy calls and dict stores.

    The program's hot loops are made of the same mix. The loop runs just
    before every timed operation, so that ``run.py`` can divide the
    machine's current speed out of each time. numpy is imported here, not
    at the top, so that set-up still pays for its import.
    """
    import numpy as np

    vector = np.ones(8)
    start = perf_counter()
    acc = {}
    for i in range(400):
        acc[i & 31] = float(np.dot(vector, vector)) + len(acc)
    return (perf_counter() - start) * 1e3


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def closed_loop(spec: dict, tracer, one_round) -> tuple[dict, int]:
    """Whole rounds of ``one_round(number) -> [(op, ms, calibration ms)]``
    until the deadline.

    In a traced run every other round runs untraced, so that the tracing
    overhead is measured in this one process: each operation's traced
    times against its untraced ones. Returns the times of the traced
    (or only) rounds under ``op_ms``, those of the untraced rounds of a
    traced run under ``untraced_op_ms``, and the number of rounds.
    """
    times = {"op_ms": [], "untraced_op_ms": []}
    deadline = perf_counter() + spec["seconds"]
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if tracer is not None:
            tracer.uninstall()
            if traced:
                tracer.install()
        times["op_ms" if tracer is None or traced else "untraced_op_ms"] += one_round(rounds)
        rounds += 1
        if perf_counter() >= deadline and rounds >= 2:
            break
    if tracer is not None:
        tracer.uninstall()
    return times, rounds


def season_build(spec: dict, result: dict, tracer) -> None:
    """ingest, then train and index every month, through the CLI, per round."""
    cli = sys.modules["eventsearch.cli"]
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in spec["train_flags"].items()]
    first, mismatches, folders = {}, [], []
    counts = {"attempted": 0, "failed": 0}

    def one_round(number: int) -> list:
        out = os.path.join(spec["work"], f"round{number}")
        os.makedirs(out)
        calls, op_ms = [], []
        cal = calibration_ms()
        start = perf_counter()
        calls.append(_cli_call(cli, ["ingest", "--input", spec["raw"], "--out-dir", out]))
        op_ms.append((0, (perf_counter() - start) * 1e3, cal))
        for op, month in enumerate(spec["months"], start=1):
            cal = calibration_ms()
            month_start = perf_counter()
            part = os.path.join(out, f"{month}.tsv")
            calls.append(_cli_call(cli, ["train", "--input", part,
                                         "--output", os.path.join(out, f"{month}.vec"), *flags]))
            calls.append(_cli_call(cli, ["index", "--input", part,
                                         "--output", os.path.join(out, f"{month}.idx")]))
            op_ms.append((op, (perf_counter() - month_start) * 1e3, cal))
        counts["attempted"] += len(calls)
        counts["failed"] += sum(1 for code, _, _ in calls if code != 0)
        if number == 0:
            result["outputs"] = [{"code": c, "stdout": o, "stderr": e} for c, o, e in calls]
        digest = {}
        for month in spec["months"]:
            for ext in ("vec", "idx"):
                path = os.path.join(out, f"{month}.{ext}")
                digest[f"{month}.{ext}"] = _sha256(path) if os.path.exists(path) else None
        if number == 0:
            first.update(digest)
        elif digest != first:
            mismatches.append(f"round {number} artifacts differ from round 0")
        if folders:
            shutil.rmtree(folders.pop())
        folders.append(out)
        return op_ms

    times, rounds = closed_loop(spec, tracer, one_round)
    result.update(times, rounds=rounds, **counts, mismatches=mismatches, artifacts=folders[0])


def _as_plain(kind: str, value) -> dict:
    if kind == "eval":
        return {"expansion": dict(value.expansion_terms), "seed_hits": value.seed_hits,
                "expanded_hits": value.expanded_hits, "increase_pct": value.increase_pct}
    query, results = value
    return {"expansion": dict(query.expansion_terms),
            "results": [[r.doc_id, r.score, [list(m) for m in r.matched_terms]] for r in results]}


def search_warm(es, spec: dict, result: dict, tracer, index, model) -> None:
    """expand_query + retrieve, and recall_increase, through the library."""
    scorers = [es.Bm25(op["scorer"]["k1"], op["scorer"]["b"]) if op["scorer"]["kind"] == "bm25"
               else es.TfIdf() for op in spec["ops"]]
    outputs, mismatches = [], []
    counts = {"attempted": 0, "failed": 0}

    def one_round(number: int) -> list:
        op_ms = []
        for i, (op, scorer) in enumerate(zip(spec["ops"], scorers)):
            counts["attempted"] += 1
            cal = calibration_ms()
            start = perf_counter()
            try:
                if op["op"] == "eval":
                    value = es.recall_increase(index, [op["seed"]], model, k=op["k"],
                                               min_sim=op["min_sim"], threshold=op["threshold"],
                                               scorer=scorer)
                else:
                    query = es.expand_query([op["seed"]], model, k=op["k"], min_sim=op["min_sim"])
                    value = query, es.retrieve(index, query, scorer, threshold=op["threshold"],
                                               limit=op["limit"])
            except Exception:  # a raising operation is a failed one
                counts["failed"] += 1
                if number == 0:
                    outputs.append({"error": traceback.format_exc()})
                continue
            op_ms.append((i, (perf_counter() - start) * 1e3, cal))
            plain = _as_plain(op["op"], value)
            if number == 0:
                outputs.append(plain)
            elif plain != outputs[i]:
                mismatches.append(f"round {number} op {i} differs from round 0")
        return op_ms

    times, rounds = closed_loop(spec, tracer, one_round)
    result.update(times, rounds=rounds, **counts, outputs=outputs, mismatches=mismatches)


def cli_session(spec: dict, result: dict, tracer) -> None:
    """A fixed script of search, eval, expand and neighbors CLI calls.

    Every call reads its own fresh copy of the index and the vector file,
    made untimed under a new name, so no cache keyed by path can serve a
    later call.
    """
    cli = sys.modules["eventsearch.cli"]
    os.makedirs(spec["work"])
    outputs, mismatches = [], []
    counts = {"attempted": 0, "failed": 0}

    def one_round(number: int) -> list:
        op_ms = []
        for i, op in enumerate(spec["ops"]):
            counts["attempted"] += 1
            index = os.path.join(spec["work"], f"r{number}c{i}.idx")
            model = os.path.join(spec["work"], f"r{number}c{i}.vec")
            shutil.copyfile(spec["index"], index)
            shutil.copyfile(spec["model"], model)
            argv = cli_argv(op, index, model)
            cal = calibration_ms()
            start = perf_counter()
            call = _cli_call(cli, argv)
            elapsed = (perf_counter() - start) * 1e3
            os.remove(index)
            os.remove(model)
            if call[0] != 0:
                counts["failed"] += 1
            else:
                op_ms.append((i, elapsed, cal))
            if number == 0:
                outputs.append({"code": call[0], "stdout": call[1], "stderr": call[2]})
            elif call[1] != outputs[i]["stdout"]:
                mismatches.append(f"round {number} call {i} printed other output than round 0")
        return op_ms

    times, rounds = closed_loop(spec, tracer, one_round)
    result.update(times, rounds=rounds, **counts, outputs=outputs, mismatches=mismatches)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = perf_counter()
    import eventsearch as es

    if spec["workload"] != "search-warm" or spec["mode"] == "prep":
        import eventsearch.cli  # noqa: F401  (the library workload never loads it)

    expected_src = os.path.join(spec["src"], "eventsearch")
    if os.path.dirname(os.path.abspath(es.__file__)) != expected_src:
        raise SystemExit(f"imported eventsearch from {es.__file__}, not from {expected_src}")
    result: dict = {}
    if spec["mode"] == "prep":
        code, _, err = _cli_call(sys.modules["eventsearch.cli"],
                                 ["index", "--input", spec["month_file"], "--output", spec["index"]])
        if code != 0:
            raise SystemExit(f"building the served index failed: {err}")
        return 0

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    index = model = None
    if spec["workload"] == "search-warm":
        index = es.load_index(spec["index"])
        model = es.load_vectors(spec["model"])
    result["setup_s"] = perf_counter() - start
    if spec["mode"] == "run":
        if spec["workload"] == "season-build":
            season_build(spec, result, tracer)
        elif spec["workload"] == "search-warm":
            search_warm(es, spec, result, tracer, index, model)
        else:
            cli_session(spec, result, tracer)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["spans"] = tracer.spans
        if spec["workload"] == "season-build":
            # read back what the last round wrote, for the parent's count checks
            saved = {}
            for month in spec["months"]:
                path = os.path.join(result["artifacts"], f"{month}.idx")
                try:
                    loaded = es.load_index(path)
                except Exception as exc:  # an unreadable artifact fails the check
                    saved[month] = {"error": str(exc)}
                    continue
                saved[month] = {"doc_count": loaded.doc_count, "doc_freq": loaded.doc_freq}
            result["saved_index"] = saved
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
