import csv
import io
import json

import numpy as np
import pytest

from mvli.cli import main
from mvli.encoder import EncoderConfig, init_encoder_params, named_tensors, save_params


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_exp")
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


class TestAblateCommand:
    def test_four_rows_reported(self, workdir, tmp_path):
        root, cfg, out = workdir
        report = tmp_path / "ablation.csv"
        code = run_cli(
            "--config", str(cfg), "ablate", "--kb", str(out / "kb.jsonl"),
            "--train-samples", str(out / "train.jsonl"),
            "--test-samples", str(out / "test_seen.jsonl"),
            "--report-out", str(report),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(report.read_text())))
        labels = {r["config_flags"] for r in rows}
        assert labels == {"none", "MI", "MI+MMF", "MI+MMF+ETE"}


class TestProbeCommand:
    def test_image_only_probe_runs(self, workdir, tmp_path):
        root, cfg, out = workdir
        report = tmp_path / "probe.csv"
        code = run_cli(
            "--config", str(cfg), "probe", "--kb", str(out / "kb.jsonl"),
            "--train-samples", str(out / "train.jsonl"),
            "--test-samples", str(out / "test_seen.jsonl"),
            "--report-out", str(report), "--mode", "image_only", "--flags", "none",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(report.read_text())))
        assert rows and all("image-only" in r["config_flags"] for r in rows)

    def test_invalid_mode_rejected_by_parser(self, workdir, tmp_path):
        root, cfg, out = workdir
        with pytest.raises(SystemExit):
            run_cli("probe", "--kb", str(out / "kb.jsonl"),
                    "--train-samples", str(out / "train.jsonl"),
                    "--test-samples", str(out / "test_seen.jsonl"),
                    "--report-out", str(tmp_path / "x.csv"), "--mode", "bogus")


class TestSearchSingleDoc:
    def test_one_doc_kb_returns_that_doc(self, tmp_path):
        kb_path = tmp_path / "kb.jsonl"
        kb_path.write_text(json.dumps({
            "doc_id": "only", "title": "Sole Thing",
            "body": "sole thing rests quietly.", "main_image_key": "img::Sole Thing",
        }) + "\n")
        config = EncoderConfig(dim=8, text_dim=12, image_dim=12, n_patches=2,
                               n_heads=2, attn_dim=8, n_mm_tokens=2)
        params_path = tmp_path / "p.mprm"
        save_params(init_encoder_params(config, seed=1), config, params_path)
        index_path = tmp_path / "kb.mvli"
        assert run_cli("index", "--kb", str(kb_path), "--params", str(params_path),
                       "--out", str(index_path)) == 0
        assert run_cli("search", "--index", str(index_path),
                       "--params", str(params_path), "--query-text", "anything",
                       "--image-key", "img::whatever", "--k", "3") == 0


class TestExhaustiveIndexMatchesExactEval:
    def test_recall_rows_agree(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "kb.jsonl")
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "train", "--kb", kb,
                       "--samples", str(out / "train.jsonl"), "--out", str(params)) == 0
        index = tmp_path / "kb.mvli"
        # lossless residuals + exhaustive probing degenerate to exact scoring
        assert run_cli("--config", str(cfg), "--set", "index.nbits=0",
                       "index", "--kb", kb, "--params", str(params),
                       "--out", str(index)) == 0
        exact_report = tmp_path / "exact.csv"
        index_report = tmp_path / "index.csv"
        assert run_cli("--config", str(cfg), "eval", "--kb", kb,
                       "--params", str(params),
                       "--samples", str(out / "test_seen.jsonl"),
                       "--report-out", str(exact_report)) == 0
        assert run_cli("--config", str(cfg), "--set", "index.nprobe=100000",
                       "--set", "index.candidate_doc_cap=100000",
                       "eval", "--kb", kb, "--params", str(params),
                       "--samples", str(out / "test_seen.jsonl"),
                       "--index", str(index), "--report-out", str(index_report)) == 0

        # every split, recall and distractor_recall rows alike
        exact_rows = list(csv.DictReader(io.StringIO(exact_report.read_text())))
        assert {r["split"] for r in exact_rows} >= {"all", "seen"}
        assert {r["metric"] for r in exact_rows} == {"recall", "distractor_recall"}
        assert index_report.read_text() == exact_report.read_text()


class TestNumericExitCode:
    def test_nonfinite_params_exit_4(self, workdir, tmp_path):
        root, cfg, out = workdir
        config = EncoderConfig(dim=8, text_dim=12, image_dim=12, n_patches=2,
                               n_heads=2, attn_dim=8, n_mm_tokens=2)
        params = init_encoder_params(config, seed=1)
        named_tensors(params)["text_proj.w1"][0, 0] = np.nan
        bad = tmp_path / "bad.mprm"
        save_params(params, config, bad)
        code = run_cli("index", "--kb", str(out / "kb.jsonl"),
                       "--params", str(bad), "--out", str(tmp_path / "x.mvli"))
        assert code == 4
