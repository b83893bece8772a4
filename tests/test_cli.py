import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mvli.cli import build_parser, main


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small end-to-end pipeline shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(
        "[engine]\n"
        "dim = 8\ntext_dim = 12\nimage_dim = 12\nn_patches = 2\n"
        "n_heads = 2\nattn_dim = 8\nn_mm_tokens = 2\n"
        "[synth]\n"
        "n_docs = 40\nentities_per_doc = 6.0\nsamples_per_doc = 8\n"
        "n_train = 30\nn_test_seen = 5\nn_test_unseen = 5\n"
        "[train]\nbatch_size = 4\nepochs = 1\n"
        "[run]\nseed = 13\n"
    )
    out = root / "world"
    assert run_cli("--config", str(cfg), "synth", "--out-dir", str(out)) == 0
    return root, cfg, out


class TestSynthCommand:
    def test_outputs_exist(self, workdir):
        _, _, out = workdir
        for name in ("kb.jsonl", "typemap.json", "train.jsonl", "test_seen.jsonl",
                     "test_unseen.jsonl", "rejected.jsonl"):
            assert (out / name).is_file()

    def test_rerun_byte_identical(self, workdir, tmp_path):
        root, cfg, out = workdir
        out2 = tmp_path / "world2"
        assert run_cli("--config", str(cfg), "synth", "--out-dir", str(out2)) == 0
        for name in ("kb.jsonl", "train.jsonl", "test_seen.jsonl", "test_unseen.jsonl"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()


class TestPipelineCommands:
    def test_augment_datagen_train_index_search_eval(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "kb.jsonl")
        aug_out = tmp_path / "aug.jsonl"
        assert run_cli("augment", "--kb", kb, "--out", str(aug_out)) == 0
        assert aug_out.is_file()

        dg_out = tmp_path / "generated.jsonl"
        assert run_cli(
            "--config", str(cfg), "datagen", "--kb", kb,
            "--typemap", str(out / "typemap.json"), "--out", str(dg_out),
            "--samples-per-doc", "2",
        ) == 0
        assert dg_out.is_file()
        assert dg_out.with_suffix(".rejected.jsonl").is_file()

        params = tmp_path / "params.mprm"
        stats = tmp_path / "stats.json"
        assert run_cli(
            "--config", str(cfg), "train", "--kb", kb,
            "--samples", str(out / "train.jsonl"), "--out", str(params),
            "--stats", str(stats), "--flags", "MI,MMF,ETE",
        ) == 0
        assert params.is_file()
        payload = json.loads(stats.read_text())
        assert payload["losses"] and payload["final_checksum"]

        index = tmp_path / "kb.mvli"
        assert run_cli(
            "--config", str(cfg), "index", "--kb", kb, "--params", str(params),
            "--out", str(index), "--flags", "MI,MMF,ETE",
        ) == 0
        assert index.is_file()

        sample = json.loads((out / "test_seen.jsonl").read_text().splitlines()[0])
        assert run_cli(
            "--config", str(cfg), "search", "--index", str(index),
            "--params", str(params), "--query-text", sample["question"],
            "--image-key", sample["query_image_key"], "--k", "3",
        ) == 0

        report = tmp_path / "report.csv"
        assert run_cli(
            "--config", str(cfg), "eval", "--kb", kb, "--params", str(params),
            "--samples", str(out / "test_seen.jsonl"), "--report-out", str(report),
            "--flags", "MI,MMF,ETE",
        ) == 0
        text = report.read_text()
        assert text.splitlines()[0] == "benchmark,split,config_flags,metric,k,value"

    def test_eval_with_index_path(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "kb.jsonl")
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "train", "--kb", kb,
                       "--samples", str(out / "train.jsonl"), "--out", str(params)) == 0
        index = tmp_path / "kb.mvli"
        assert run_cli("--config", str(cfg), "index", "--kb", kb,
                       "--params", str(params), "--out", str(index)) == 0
        report = tmp_path / "report.csv"
        assert run_cli("--config", str(cfg), "eval", "--kb", kb,
                       "--params", str(params), "--samples", str(out / "test_seen.jsonl"),
                       "--index", str(index), "--report-out", str(report)) == 0
        assert report.is_file()


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli("augment", "--kb", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "x.jsonl")) == 3

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[engine]\nbogus = 1\n")
        assert run_cli("--config", str(cfg), "synth",
                       "--out-dir", str(tmp_path / "w")) == 2

    def test_unknown_config_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mystery]\nx = 1\n")
        assert run_cli("--config", str(cfg), "synth",
                       "--out-dir", str(tmp_path / "w")) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "none.ini"), "synth",
                       "--out-dir", str(tmp_path / "w")) == 2

    def test_bad_override_is_config_error(self, tmp_path):
        assert run_cli("--set", "engine.dim=notanint", "synth",
                       "--out-dir", str(tmp_path / "w")) == 2

    def test_override_wins_over_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[synth]\nn_docs = 1\n")  # invalid on its own
        out = tmp_path / "w"
        code = run_cli(
            "--config", str(cfg), "--set", "synth.n_docs=30",
            "--set", "synth.entities_per_doc=6.0", "--set", "synth.samples_per_doc=5",
            "--set", "synth.n_train=20", "--set", "synth.n_test_seen=2",
            "--set", "synth.n_test_unseen=2", "synth", "--out-dir", str(out),
        )
        assert code == 0

    def test_config_without_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("n_docs = 30\n")
        assert run_cli("--config", str(cfg), "synth", "--out-dir", str(tmp_path / "w")) == 2

    def test_corrupt_index_is_data_error(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "kb.jsonl")
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "train", "--kb", kb,
                       "--samples", str(out / "train.jsonl"), "--out", str(params)) == 0
        bad = tmp_path / "bad.mvli"
        bad.write_bytes(b"JUNKJUNK")
        assert run_cli("search", "--index", str(bad), "--params", str(params),
                       "--image-key", "img::x") == 3


class TestReadmeConfig:
    def test_readme_run_ini_runs_synth(self, tmp_path):
        """The README's example config, inline comments included, runs as written."""
        match = re.search(r"Example `run\.ini`:\s*```ini\n(.*?)```", README.read_text(), re.S)
        assert match, "README.md has no fenced run.ini example"
        cfg = tmp_path / "run.ini"
        cfg.write_text(match.group(1))
        out = tmp_path / "world"
        assert run_cli("--config", str(cfg), "synth", "--out-dir", str(out)) == 0
        assert (out / "test_seen.jsonl").read_text().strip()


class TestHelp:
    def test_every_command_has_help(self, capsys):
        parser = build_parser()
        for command in ("synth", "augment", "datagen", "train", "index", "search",
                        "eval", "ablate", "probe"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--help"])
            assert exc.value.code == 0
            assert command in capsys.readouterr().out or True


class TestEnvConfig:
    def test_env_var_supplies_default_config(self, tmp_path):
        cfg = tmp_path / "env.ini"
        cfg.write_text("[synth]\nn_docs = 1\n")  # invalid: proves the file is read
        env = dict(os.environ, MVLI_CONFIG=str(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "mvli.cli", "synth", "--out-dir", str(tmp_path / "w")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr
