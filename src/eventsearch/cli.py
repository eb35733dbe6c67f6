"""Command-line front door for the retrieval pipeline.

Each subcommand is a thin adapter over one library operation so that every
pipeline stage leaves an inspectable artifact on disk. Exit codes: 0 on
success, 1 on usage errors, 2 on data, format, I/O or out-of-memory errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import MonthlyCorpus, format_month, ingest, parse_month, segment_by_month
from .embedding import TrainConfig, load_vectors, most_similar, save_vectors, train
from .errors import EventSearchError
from .evaluation import format_report, recall_increase
from .expansion import (DEFAULT_K, DEFAULT_MIN_SIM, StopwordList, expand_query, format_expansion,
                        seed_only_query)
from .index import build_index, load_index, save_index
from .ranking import Bm25, TfIdf, format_results, retrieve
from .textfile import reader, writer

log = logging.getLogger("eventsearch.cli")  # not "__main__" under python -m


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_expansion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=DEFAULT_K,
                        help="expansion candidates per seed term, 1..4 (default %(default)s)")
    parser.add_argument("--min-sim", type=float, default=DEFAULT_MIN_SIM,
                        help="similarity threshold, strict (default %(default)s)")
    parser.add_argument("--stopwords", metavar="FILE",
                        help="stop word file, one lowercase word per line (default: built-in)")


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scorer", choices=("tfidf", "bm25"), default="tfidf")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="keep documents scoring strictly above this (default 0)")
    parser.add_argument("--bm25-k1", type=float, default=Bm25.k1)
    parser.add_argument("--bm25-b", type=float, default=Bm25.b)


def _read_documents(path: str):
    with reader(path) as handle:
        result = ingest(handle)
    for lineno, message in result.errors:
        log.warning("%s:%d: skipped: %s", path, lineno, message)
    if result.errors:
        log.warning("%s: skipped %d malformed line(s)", path, len(result.errors))
    return result.documents


def _partition(args) -> MonthlyCorpus:
    partitions = segment_by_month(_read_documents(args.input))
    if not partitions:
        raise EventSearchError("corpus contains no documents")
    available = ", ".join(format_month(p.month_key) for p in partitions)
    if args.month is None:
        if len(partitions) > 1:
            raise EventSearchError(f"corpus spans several months ({available}); pass --month")
        return partitions[0]
    wanted = parse_month(args.month)
    for part in partitions:
        if part.month_key == wanted:
            return part
    raise EventSearchError(f"month {args.month} not in corpus (have: {available})")


def _partition_flags(p: argparse.ArgumentParser, output_help: str = "index file") -> None:
    p.add_argument("--input", required=True, help="TSV corpus file")
    p.add_argument("--month", help="YYYY-MM selector when the corpus spans several months")
    p.add_argument("--output", required=True, help=output_help)


def _stopwords(args) -> StopwordList | None:
    return None if args.stopwords is None else StopwordList.from_file(args.stopwords)


def _scorer(args):
    bm25 = Bm25(k1=args.bm25_k1, b=args.bm25_b)  # checks the flags under every scorer
    return bm25 if args.scorer == "bm25" else TfIdf()


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="TSV corpus: doc_id, date, category, title")
    p.add_argument("--out-dir", required=True, help="directory for YYYY-MM.tsv partitions")


def cmd_ingest(args) -> int:
    documents = _read_documents(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for part in segment_by_month(documents):
        path = out_dir / f"{format_month(part.month_key)}.tsv"
        with writer(path) as handle:
            handle.write("".join(
                f"{doc.doc_id}\t{doc.sold_date.isoformat()}\t{doc.category}\t{doc.title}\n"
                for doc in part.documents
            ))
        print(f"{format_month(part.month_key)}\t{len(part)}\t{path}")
    return 0


def _train_flags(p: argparse.ArgumentParser) -> None:
    _partition_flags(p, "vectors file (word2vec text format)")
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--window", type=int, default=TrainConfig.window)
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr_initial, dest="lr_initial",
                   metavar="LR", help="initial learning rate")
    p.add_argument("--lr-final", type=float, default=TrainConfig.lr_final)
    p.add_argument("--min-count", type=int, default=TrainConfig.min_count)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed, dest="rng_seed",
                   metavar="SEED", help="RNG seed for reproducible training")


def cmd_train(args) -> int:
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    part = _partition(args)
    model = train(part, cfg)
    save_vectors(model, args.output)
    log.info(
        "trained %s: %d terms, dim %d, %d docs -> %s",
        format_month(part.month_key), len(model), model.dim, len(part), args.output,
    )
    return 0


def _neighbors_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="vectors file")
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--min-sim", type=float, default=DEFAULT_MIN_SIM)


def cmd_neighbors(args) -> int:
    model = load_vectors(args.model)
    for term, score in most_similar(model, args.word, args.k, args.min_sim):
        print(f"{term}\t{score:.6f}")
    return 0


def _expand_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="vectors file")
    p.add_argument("--seed", required=True, help="seed keywords, e.g. 'valentines day jewelry'")
    _add_expansion_flags(p)


def cmd_expand(args) -> int:
    model = load_vectors(args.model)
    query = expand_query([args.seed], model, _stopwords(args), k=args.k, min_sim=args.min_sim)
    print(format_expansion(query))
    return 0


def cmd_index(args) -> int:
    part = _partition(args)
    index = build_index(part)
    save_index(index, args.output)
    log.info(
        "indexed %s: %d docs, %d terms -> %s",
        format_month(part.month_key), index.doc_count, len(index.terms), args.output,
    )
    return 0


def _search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True, help="index file")
    p.add_argument("--seed", required=True, help="seed keywords")
    p.add_argument("--model", help="vectors file; omit to search with the seed terms only")
    p.add_argument("--limit", type=int, help="truncate the result list")
    _add_expansion_flags(p)
    _add_scorer_flags(p)


def cmd_search(args) -> int:
    model = None if args.model is None else load_vectors(args.model)
    stopwords = _stopwords(args)  # read without a model too, so a bad file fails every search
    if model is None:
        query = seed_only_query([args.seed], k=args.k, min_sim=args.min_sim)
    else:
        query = expand_query([args.seed], model, stopwords, k=args.k, min_sim=args.min_sim)
    index = load_index(args.index)
    results = retrieve(index, query, _scorer(args), threshold=args.threshold, limit=args.limit)
    if results:
        print(format_results(results))
    return 0


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True, help="index file")
    p.add_argument("--model", required=True, help="vectors file")
    p.add_argument("--seed", required=True, help="seed keywords")
    _add_expansion_flags(p)
    _add_scorer_flags(p)


def cmd_eval(args) -> int:
    index = load_index(args.index)
    model = load_vectors(args.model)
    report = recall_increase(
        index,
        [args.seed],
        model,
        _stopwords(args),
        k=args.k,
        min_sim=args.min_sim,
        threshold=args.threshold,
        scorer=_scorer(args),
    )
    print(format_report(report))
    return 0


COMMANDS = {
    "ingest": ("split a corpus file into per-month corpus files", _ingest_flags, cmd_ingest),
    "train": ("train embeddings for one month partition", _train_flags, cmd_train),
    "neighbors": ("list nearest vocabulary terms for a word", _neighbors_flags, cmd_neighbors),
    "expand": ("expand seed keywords into a weighted query", _expand_flags, cmd_expand),
    "index": ("build an inverted index for one month partition", _partition_flags, cmd_index),
    "search": ("rank indexed documents against a (expanded) query", _search_flags, cmd_search),
    "eval": ("report recall increase of expansion vs seed-only", _eval_flags, cmd_eval),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with only command's subparser if COMMANDS holds command, and with
    all of them otherwise (no command, an option such as --help, an unknown name). An argv
    that starts with command parses to the same result either way."""
    parser = _Parser(prog="eventsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in [command] if command in COMMANDS else COMMANDS:
        help_text, add_flags, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one call, argv or else sys.argv[1:], building only its command's subparser."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # log to this call's stderr, then hand the package logger back as it was
    logger = logging.getLogger("eventsearch")
    handlers, propagate, level = logger.handlers, logger.propagate, logger.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.handlers, logger.propagate = [handler], False
    logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"eventsearch: error: {exc}", file=sys.stderr)
        return 1
    except (EventSearchError, OSError) as exc:
        print(f"eventsearch: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # say, numpy refusing an array that --dim makes huge
        print(f"eventsearch: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        logger.handlers, logger.propagate = handlers, propagate
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
