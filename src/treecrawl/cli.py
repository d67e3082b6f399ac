"""Command-line surface: keyword expansion, reward-model training, world
generation, crawling, and report CSVs.

Exit status: 0 on success, 2 when a crawl ran out of frontier, 1 on failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .checks import is_kind, parse_json
from .crawler import POLICIES, ConfigError, CrawlConfig, crawl
from .embeddings import (KeywordSet, expand_keywords, load_embeddings,
                         load_keywords, save_keywords, score_candidates, threshold_b)
from .fetch import LiveFetcher, SimFetcher
from .report import report_series, write_run
from .reward import (corpus_records, load_corpus_jsonl, load_model, macro_f1,
                     relevance_probability, save_model, train)
from .simworld import (SimWorldParams, generate_sim_world, load_world,
                       save_world, training_corpus)
from .text import load_stopwords, tokenize

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_EXHAUSTED = 2


def _read_corpus_tokens(path):
    """Corpus documents as token sequences: JSONL page records or plain text,
    one document per line."""
    if path.lower().endswith(".jsonl"):
        return [tokenize(record.get("title", "") + " " + record.get("text", ""))
                for record in corpus_records(path, labeled=False)]
    with open(path, encoding="utf-8") as fh:
        return [tokenize(line) for line in fh if line.strip()]


def cmd_expand(args) -> int:
    table = load_embeddings(args.embeddings)
    keywords = load_keywords(args.keywords)
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    corpus = _read_corpus_tokens(args.corpus)
    if not any(corpus):
        print("warning: empty corpus, keyword set unchanged", file=sys.stderr)
    kwargs = {"stopwords": stopwords} if stopwords is not None else {}
    b = threshold_b(keywords.initial, table)
    scores = score_candidates(keywords, corpus, table, **kwargs)
    expanded = expand_keywords(keywords, corpus, table, **kwargs)
    save_keywords(expanded, args.out, scores=scores)
    report = {
        "threshold_b": b,
        "initial": sorted(expanded.initial),
        "discovered": {k: scores[k] for k in sorted(expanded.discovered)},
        "candidates_scored": len(scores),
    }
    report_path = args.report or args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"threshold b = {b:.6f}; {len(expanded.discovered)} keywords discovered "
          f"from {len(scores)} candidates -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    keywords = load_keywords(args.keywords)
    relevant, irrelevant = load_corpus_jsonl(args.corpus, max_len=args.max_len)
    model = train(relevant, irrelevant, keywords, seed=args.seed)
    save_model(model, args.out)
    probs = [relevance_probability(model, p, keywords) for p in relevant + irrelevant]
    labels = [1] * len(relevant) + [0] * len(irrelevant)
    preds = [1 if p >= model.threshold else 0 for p in probs]
    print(f"trained on {len(relevant)}+{len(irrelevant)} pages; mu={model.mu:.3f} "
          f"threshold={model.threshold:.4f} train-macro-F1={macro_f1(labels, preds):.4f} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_genworld(args) -> int:
    params = SimWorldParams(
        pages=args.pages, relevance=args.relevance, locality=args.locality,
        mean_out_degree=args.out_degree, communities=args.communities,
        domains=args.domains, hub_rate=args.hub_rate, seeds=args.n_seeds)
    world = generate_sim_world(params, seed=args.seed)
    # Drawn before anything is written, so a bad corpus request writes nothing.
    records = training_corpus(world, args.corpus_relevant, args.corpus_irrelevant,
                              seed=args.seed) if args.corpus else None
    save_world(world, args.out)
    print(f"world: {params.pages} pages, {len(world.relevant_urls)} relevant, "
          f"seed urls {world.seed_urls} -> {args.out}")
    if args.corpus:
        with open(args.corpus, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        print(f"training corpus: {args.corpus_relevant}+{args.corpus_irrelevant} "
              f"pages -> {args.corpus}")
    if args.keywords_out:
        with open(args.keywords_out, "w", encoding="utf-8") as fh:
            for k in world.keywords:
                fh.write(k + "\n")
        print(f"topic keywords -> {args.keywords_out}")
    return EXIT_OK


def _config_from_args(args):
    """(input paths, CrawlConfig fields) from a manifest, or from the flags
    overridden by the --config file."""
    if args.from_manifest:
        # Every other flag would be ignored, so any that differs from its
        # default is an error; hub_features can only differ by its --no- form.
        defaults = vars(build_parser().parse_args(["crawl"]))
        given = [{"hub_features": "--no-hub-features"}.get(key, "--" + key.replace("_", "-"))
                 for key, value in vars(args).items()
                 if key not in ("out", "from_manifest") and value != defaults[key]]
        if os.environ.get("TREECRAWL_CONFIG"):
            given.append("TREECRAWL_CONFIG (environment)")
        if given:
            raise ConfigError("--from-manifest replays the manifest's config and takes "
                              f"no other crawl flag but --out; got {', '.join(given)}")
        source = f"--from-manifest file {args.from_manifest}"
        with open(args.from_manifest, encoding="utf-8") as fh:
            manifest = parse_json(fh.read(), source, ConfigError)
        config = manifest.get("config") if is_kind(manifest, dict) else None
        if not is_kind(config, dict):
            raise ConfigError(f"{source} must hold a manifest object with a "
                              "\"config\" object")
    else:
        seeds = []
        if args.seeds:
            seeds = [s for s in args.seeds.split(",") if s]
        if args.seeds_file:
            with open(args.seeds_file, encoding="utf-8") as fh:
                seeds.extend(line for line in map(str.strip, fh)
                             if line and not line.startswith("#"))
        config = {
            "mode": args.mode,
            "policy": args.policy,
            "budget": args.budget,
            "max_domain_visits": args.max_domain,
            "hub_features": args.hub_features,
            "warmup_steps": args.warmup,
            "rng_seed": args.seed,
            "seeds": seeds,
            "world": args.world,
            "model": args.model,
            "keywords": args.keywords,
        }
        source = "the command line"
        config_path = args.config or os.environ.get("TREECRAWL_CONFIG")
        if config_path:
            source = ("--config" if args.config else "TREECRAWL_CONFIG") + f" file {config_path}"
            with open(config_path, encoding="utf-8") as fh:
                overrides = parse_json(fh.read(), source, ConfigError)
            if not is_kind(overrides, dict):
                raise ConfigError(f"{source} must hold a JSON object of CrawlConfig "
                                  f"fields, not {json.dumps(overrides)[:40]}")
            config.update(overrides)
    inputs = {key: config.pop(key, None) for key in ("world", "model", "keywords")}
    for key, value in inputs.items():
        if not (value is None or is_kind(value, str)):
            raise ConfigError(f"{source}: {key} must be a file path string or null, "
                              f"not {json.dumps(value)[:40]}")
    return inputs, config


def cmd_crawl(args) -> int:
    inputs, config = _config_from_args(args)
    crawl_config = CrawlConfig.from_dict(config)

    if crawl_config.mode == "sim":
        if not inputs["world"]:
            print("error: sim mode needs --world", file=sys.stderr)
            return EXIT_FAILED
        world = load_world(inputs["world"])
        fetcher = SimFetcher(world)
        crawl_config.seeds = crawl_config.seeds or list(world.seed_urls)
        keywords = (load_keywords(inputs["keywords"]) if inputs["keywords"]
                    else KeywordSet(frozenset(world.keywords)))
    else:
        if inputs["world"]:
            raise ConfigError("live mode fetches the web and reads no world file; drop --world")
        fetcher = LiveFetcher()
        if not inputs["keywords"]:
            print("error: live mode needs --keywords", file=sys.stderr)
            return EXIT_FAILED
        keywords = load_keywords(inputs["keywords"])
    if not inputs["model"]:
        print("error: a trained relevance model is required (--model)", file=sys.stderr)
        return EXIT_FAILED
    model = load_model(inputs["model"])

    config = {**inputs, **crawl_config.to_dict()}
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]
    run_dir = os.path.join(args.out, digest)  # write_run creates it

    started = time.time()
    result = crawl(crawl_config, fetcher, model, keywords)
    paths = write_run(result, run_dir)

    manifest = {
        "command": "crawl",
        "config": config,
        "rng_seed": crawl_config.rng_seed,
        "artifacts": paths,
        "wall_clock_seconds": time.time() - started,
        "versions": {"treecrawl": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    print(f"{result.status}: fetched {len(result.fetched)} pages, "
          f"HR={result.harvest_rate:.4f}, relevant domains={result.relevant_domains}, "
          f"unique domains={result.unique_domains} -> {run_dir}")
    return EXIT_OK if result.status == "completed" else EXIT_EXHAUSTED


def cmd_report(args) -> int:
    paths = report_series(args.run, args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecrawl",
        description="Focused crawling with a learned, tree-structured frontier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="grow a keyword set from a corpus")
    p.add_argument("--keywords", required=True, help="initial keyword file")
    p.add_argument("--corpus", required=True, help="JSONL page records or plain text")
    p.add_argument("--embeddings", required=True, help="word-vector file")
    p.add_argument("--stopwords", help="custom stopword file")
    p.add_argument("--out", required=True, help="expanded keyword file")
    p.add_argument("--report", help="score report path (default <out>.report.json)")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("train", help="fit the relevance reward model")
    p.add_argument("--corpus", required=True, help="labeled JSONL page records")
    p.add_argument("--keywords", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--max-len", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    defaults = SimWorldParams()
    p = sub.add_parser("genworld", help="generate a synthetic web graph")
    p.add_argument("--out", required=True, help="world JSONL path")
    p.add_argument("--pages", type=int, default=defaults.pages)
    p.add_argument("--relevance", type=float, default=defaults.relevance)
    p.add_argument("--locality", type=float, default=defaults.locality)
    p.add_argument("--out-degree", type=float, default=defaults.mean_out_degree)
    p.add_argument("--communities", type=int, default=defaults.communities)
    p.add_argument("--domains", type=int, default=defaults.domains)
    p.add_argument("--hub-rate", type=float, default=defaults.hub_rate)
    p.add_argument("--n-seeds", type=int, default=defaults.seeds)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", help="also write a labeled training corpus here")
    p.add_argument("--corpus-relevant", type=int, default=150)
    p.add_argument("--corpus-irrelevant", type=int, default=1500)
    p.add_argument("--keywords-out", help="write the topic keywords here")
    p.set_defaults(func=cmd_genworld)

    p = sub.add_parser("crawl", help="run a crawl or baseline")
    p.add_argument("--seeds", help="comma-separated seed URLs")
    p.add_argument("--seeds-file")
    p.add_argument("--keywords", help="keyword file (defaults to the world's topic keywords in sim mode)")
    p.add_argument("--model", help="trained relevance model JSON")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--max-domain", type=int, default=None)
    p.add_argument("--mode", choices=("sim", "live"), default="sim")
    p.add_argument("--world", help="world JSONL (sim mode)")
    p.add_argument("--policy", choices=POLICIES, default="tres")
    p.add_argument("--no-hub-features", dest="hub_features", action="store_false")
    p.add_argument("--warmup", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs", help="parent directory for run outputs")
    p.add_argument("--config", help="JSON file overriding the assembled config")
    p.add_argument("--from-manifest", help="re-run the config snapshot of a manifest")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("report", help="derive plotting CSVs from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
