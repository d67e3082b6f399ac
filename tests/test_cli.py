import hashlib
import json
import math
import os

import pytest

from treecrawl.cli import main
from treecrawl.report import (FRONTIER_COLUMNS, HARVEST_COLUMNS, LEAVES_COLUMNS,
                              RATIO_COLUMNS, STEP_COLUMNS)
from treecrawl.simworld import load_world


def run_cli(*argv):
    return main(list(argv))


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """genworld -> train on its corpus -> ready-to-crawl artifact paths."""
    root = tmp_path_factory.mktemp("pipeline")
    world = str(root / "world.jsonl")
    corpus = str(root / "corpus.jsonl")
    kwfile = str(root / "keywords.txt")
    model = str(root / "model.json")
    rc = run_cli("genworld", "--out", world, "--pages", "600", "--domains", "30",
                 "--seed", "5", "--corpus", corpus, "--corpus-relevant", "25",
                 "--corpus-irrelevant", "250", "--keywords-out", kwfile)
    assert rc == 0
    rc = run_cli("train", "--corpus", corpus, "--keywords", kwfile, "--out", model)
    assert rc == 0
    return {"root": root, "world": world, "corpus": corpus,
            "keywords": kwfile, "model": model}


class TestCrawlCommand:
    def test_crawl_writes_run_artifacts(self, pipeline, tmp_path):
        out = str(tmp_path / "runs")
        seeds = load_world(pipeline["world"]).seed_urls
        seeds_file = tmp_path / "seeds.txt"
        seeds_file.write_text("# seeds\n  # indented note\n" + "\n".join(seeds) + "\n")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "40",
                     "--seeds-file", str(seeds_file),
                     "--policy", "tres", "--seed", "3", "--out", out)
        assert rc == 0
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
        assert manifest["config"]["seeds"] == seeds
        for name in ("result.jsonl", "steps.csv", "loss.csv", "summary.json",
                     "manifest.json"):
            assert os.path.exists(os.path.join(run_dir, name))
        summary = json.load(open(os.path.join(run_dir, "summary.json")))
        assert summary["status"] == "completed"
        assert summary["fetched"] == 40

    def test_budget_one_single_line_jsonl(self, pipeline, tmp_path):
        out = str(tmp_path / "runs")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "1",
                     "--policy", "random", "--seed", "1", "--out", out)
        assert rc == 0
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        lines = open(os.path.join(run_dir, "result.jsonl")).read().splitlines()
        assert len(lines) == 1

    def test_manifest_rerun_bit_identical(self, pipeline, tmp_path):
        out1 = str(tmp_path / "r1")
        out2 = str(tmp_path / "r2")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "30",
                     "--policy", "tres", "--seed", "9", "--out", out1)
        assert rc == 0
        (dir1,) = [os.path.join(out1, d) for d in os.listdir(out1)]
        rc = run_cli("crawl", "--from-manifest", os.path.join(dir1, "manifest.json"),
                     "--out", out2)
        assert rc == 0
        (dir2,) = [os.path.join(out2, d) for d in os.listdir(out2)]
        assert os.path.basename(dir1) == os.path.basename(dir2)  # hash-named dir
        for name in ("result.jsonl", "steps.csv", "loss.csv"):
            assert sha(os.path.join(dir1, name)) == sha(os.path.join(dir2, name))

    def test_manifest_takes_no_other_crawl_flag(self, pipeline, tmp_path, capsys):
        out1 = str(tmp_path / "r1")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5",
                     "--policy", "tres", "--seed", "9", "--out", out1)
        assert rc == 0
        (dir1,) = [os.path.join(out1, d) for d in os.listdir(out1)]
        capsys.readouterr()
        out2 = tmp_path / "r2"
        rc = run_cli("crawl", "--from-manifest", os.path.join(dir1, "manifest.json"),
                     "--budget", "3", "--policy", "random", "--no-hub-features",
                     "--out", str(out2))
        assert rc == 1
        err = capsys.readouterr().err
        for flag in ("--budget", "--policy", "--no-hub-features"):
            assert flag in err
        assert "--out" not in err.split("got", 1)[1]
        assert not out2.exists()

    def test_manifest_refuses_env_config(self, pipeline, tmp_path, monkeypatch, capsys):
        out1 = str(tmp_path / "r1")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5",
                     "--policy", "random", "--seed", "9", "--out", out1)
        assert rc == 0
        (dir1,) = [os.path.join(out1, d) for d in os.listdir(out1)]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budget": 2}))
        monkeypatch.setenv("TREECRAWL_CONFIG", str(cfg_path))
        capsys.readouterr()
        out2 = tmp_path / "r2"
        rc = run_cli("crawl", "--from-manifest", os.path.join(dir1, "manifest.json"),
                     "--out", str(out2))
        assert rc == 1
        assert "TREECRAWL_CONFIG" in capsys.readouterr().err
        assert not out2.exists()

    @pytest.mark.parametrize("text", ["[1]", '{"config": [1]}', "{}"])
    def test_manifest_must_hold_a_config_object(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "runs"
        capsys.readouterr()
        rc = run_cli("crawl", "--from-manifest", str(manifest), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and 'manifest object with a "config" object' in err
        assert not out.exists()

    @pytest.mark.parametrize("agent, field", [({"batch_size": "32"}, "batch_size"),
                                              ({"hidden": 5}, "hidden"),
                                              ({"gamma": True}, "gamma"),
                                              ({"activation": "sigmoid"}, "activation"),
                                              ({"eps_start": 3.0}, "eps_start"),
                                              ({"eps_decay_steps": -5}, "eps_decay_steps")])
    def test_agent_field_types_checked(self, pipeline, tmp_path, capsys, agent, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"agent": agent}))
        out = tmp_path / "runs"
        capsys.readouterr()
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5",
                     "--config", str(cfg_path), "--out", str(out))
        assert rc == 1
        assert f"agent.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_tree_snapshot_written_for_tree_policies(self, pipeline, tmp_path):
        out = str(tmp_path / "runs")
        run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                "--model", pipeline["model"], "--budget", "10",
                "--policy", "tres", "--seed", "8", "--out", out)
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        snapshot = json.load(open(os.path.join(run_dir, "tree.json")))
        assert "leaf_count" in snapshot and "tree" in snapshot

    def test_env_var_supplies_default_config(self, pipeline, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"budget": 3}))
        monkeypatch.setenv("TREECRAWL_CONFIG", str(cfg_path))
        out = str(tmp_path / "runs")
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "99",
                     "--policy", "random", "--seed", "1", "--out", out)
        assert rc == 0
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        summary = json.load(open(os.path.join(run_dir, "summary.json")))
        assert summary["fetched"] == 3  # env config overrode the flag

    def test_sim_mode_requires_world(self, pipeline, tmp_path):
        out = tmp_path / "x"
        rc = run_cli("crawl", "--mode", "sim", "--model", pipeline["model"],
                     "--budget", "5", "--out", str(out))
        assert rc == 1
        assert not out.exists()  # no empty run directory is left behind

    @pytest.mark.parametrize("override", [{"budgett": 5},
                                          {"agent": {"learning_rat": 0.05}}])
    def test_unknown_config_key_rejected(self, pipeline, tmp_path, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(override))
        out = tmp_path / "runs"
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5",
                     "--config", str(cfg_path), "--out", str(out))
        assert rc == 1
        assert not out.exists()

    def test_config_field_range_checked(self, pipeline, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_text_len": 0}))
        out = tmp_path / "runs"
        capsys.readouterr()
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5",
                     "--config", str(cfg_path), "--out", str(out))
        assert rc == 1
        assert "max_text_len" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["--config", "TREECRAWL_CONFIG"])
    @pytest.mark.parametrize("text", ["[1]", "5", "null", '"x"'])
    def test_config_file_must_hold_an_object(self, pipeline, tmp_path, monkeypatch,
                                             capsys, route, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        extra = ("--config", str(cfg_path)) if route == "--config" else ()
        if route == "TREECRAWL_CONFIG":
            monkeypatch.setenv("TREECRAWL_CONFIG", str(cfg_path))
        out = tmp_path / "runs"
        capsys.readouterr()
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "5", *extra,
                     "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert route in err and "JSON object of CrawlConfig fields" in err
        assert not out.exists()

    def test_agent_config_reaches_crawl_and_replays(self, pipeline, tmp_path):
        common = ("crawl", "--mode", "sim", "--world", pipeline["world"],
                  "--model", pipeline["model"], "--budget", "30",
                  "--policy", "tres", "--seed", "9")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"agent": {"learning_rate": 0.05}}))
        runs = {}
        for name, extra in (("default", ()), ("tuned", ("--config", str(cfg_path)))):
            out = str(tmp_path / name)
            assert run_cli(*common, *extra, "--out", out) == 0
            (runs[name],) = [os.path.join(out, d) for d in os.listdir(out)]
        loss = lambda run: sha(os.path.join(run, "loss.csv"))
        assert loss(runs["tuned"]) != loss(runs["default"])
        manifest_path = os.path.join(runs["tuned"], "manifest.json")
        manifest = json.load(open(manifest_path))
        assert manifest["config"]["agent"]["learning_rate"] == 0.05

        replay = str(tmp_path / "replay")
        assert run_cli("crawl", "--from-manifest", manifest_path, "--out", replay) == 0
        (replay_dir,) = [os.path.join(replay, d) for d in os.listdir(replay)]
        assert os.path.basename(replay_dir) == os.path.basename(runs["tuned"])
        for name in ("result.jsonl", "steps.csv", "loss.csv"):
            assert sha(os.path.join(replay_dir, name)) == sha(os.path.join(runs["tuned"], name))

    def test_exhausted_exit_code(self, pipeline, tmp_path):
        # a 600-page world cannot satisfy a 10000-fetch budget
        rc = run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                     "--model", pipeline["model"], "--budget", "10000",
                     "--policy", "random", "--seed", "2",
                     "--out", str(tmp_path / "runs"))
        assert rc == 2


class TestReportCommand:
    def test_series_columns_and_values(self, pipeline, tmp_path):
        out = str(tmp_path / "runs")
        run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                "--model", pipeline["model"], "--budget", "50",
                "--policy", "tres", "--seed", "4", "--out", out)
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        rc = run_cli("report", "--run", run_dir)
        assert rc == 0

        def rows(name):
            lines = open(os.path.join(run_dir, name)).read().splitlines()
            return lines[0].split(","), [l.split(",") for l in lines[1:]]

        header, leaves = rows("leaves.csv")
        assert header == LEAVES_COLUMNS
        counts = [int(r[1]) for r in leaves]
        assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:]))

        header, frontier = rows("frontier.csv")
        assert header == FRONTIER_COLUMNS
        header, ratios = rows("ratio.csv")
        assert header == RATIO_COLUMNS
        for (rt, rv), (ft, fv), (lt, lv) in zip(ratios, frontier, leaves):
            assert float(rv) == pytest.approx(float(fv) / float(lv))

        header, harvest = rows("harvest.csv")
        assert header == HARVEST_COLUMNS
        summary = json.load(open(os.path.join(run_dir, "summary.json")))
        assert float(harvest[-1][1]) == pytest.approx(summary["harvest_rate"])

    def test_missing_stats_fails(self, tmp_path):
        rc = run_cli("report", "--run", str(tmp_path))
        assert rc == 1

    def test_steps_schema_golden(self, pipeline, tmp_path):
        out = str(tmp_path / "runs")
        run_cli("crawl", "--mode", "sim", "--world", pipeline["world"],
                "--model", pipeline["model"], "--budget", "5",
                "--policy", "tree_random", "--seed", "6", "--out", out)
        (run_dir,) = [os.path.join(out, d) for d in os.listdir(out)]
        first = open(os.path.join(run_dir, "steps.csv")).readline().strip()
        assert first.split(",") == STEP_COLUMNS
        assert STEP_COLUMNS == ["timestep", "frontier_size", "leaf_count",
                                "q_evals", "split_occurred"]


def write_expansion_fixture(root):
    k1 = (1.0, 0.0, 0.0, 0.0)
    k2 = (0.5, math.sqrt(3) / 2, 0.0, 0.0)  # cos(k1, k2) = 0.5
    win = (math.cos(0.8), math.sin(0.8), 0.0, 0.0)
    lose = (0.0, 0.0, 1.0, 0.0)
    emb = root / "emb.txt"
    lines = ["4 4"]
    for name, vec in (("k1", k1), ("k2", k2), ("win", win), ("lose", lose)):
        lines.append(name + " " + " ".join(repr(v) for v in vec))
    emb.write_text("\n".join(lines) + "\n")
    kw = root / "ks.txt"
    kw.write_text("k1\nk2\n")
    corpus = root / "corpus.txt"
    corpus.write_text("win lose k1\n")
    return str(emb), str(kw), str(corpus)


class TestExpandCommand:
    def test_expand_report_and_output(self, tmp_path):
        emb, kw, corpus = write_expansion_fixture(tmp_path)
        out = str(tmp_path / "expanded.txt")
        rc = run_cli("expand", "--keywords", kw, "--corpus", corpus,
                     "--embeddings", emb, "--out", out)
        assert rc == 0
        report = json.load(open(out + ".report.json"))
        assert report["threshold_b"] == pytest.approx(0.5, abs=1e-12)
        for token, score in report["discovered"].items():
            assert score >= report["threshold_b"]
        assert "win" in report["discovered"]
        assert "lose" not in report["discovered"]
        text = open(out).read()
        assert "win" in text

    def test_empty_corpus_keeps_ks(self, tmp_path, capsys):
        emb, kw, _ = write_expansion_fixture(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        out = str(tmp_path / "expanded.txt")
        rc = run_cli("expand", "--keywords", kw, "--corpus", str(empty),
                     "--embeddings", emb, "--out", out)
        assert rc == 0
        report = json.load(open(out + ".report.json"))
        assert report["discovered"] == {}

    def test_failure_exit_code(self, tmp_path):
        rc = run_cli("expand", "--keywords", str(tmp_path / "none.txt"),
                     "--corpus", str(tmp_path / "none2.txt"),
                     "--embeddings", str(tmp_path / "none3.txt"),
                     "--out", str(tmp_path / "out.txt"))
        assert rc == 1


class TestTrainCommand:
    def test_train_writes_model(self, pipeline):
        model = json.load(open(pipeline["model"]))
        assert set(model) == {"weights", "bias", "mu", "threshold"}
        assert model["mu"] > 0
