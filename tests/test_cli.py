import dataclasses
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli_capped
from mvli import cli
from mvli.augment import load_augmented
from mvli.cli import _SCHEMA, RunConfig, build_parser, main
from mvli.core import ConfigError
from mvli.encoder import EncoderConfig, EncoderFlags, init_encoder_params, save_params
from mvli.index import SearchParams, build_index, load_index
from mvli.synth import SynthConfig
from mvli.train import TrainConfig


README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("synth", "augment", "datagen", "train", "index", "search", "eval", "ablate", "probe")


def run_cli(*argv) -> int:
    return main(list(argv))


# the [engine] section of the workdir config
CLI_ENGINE = EncoderConfig(dim=8, text_dim=12, image_dim=12, n_patches=2,
                           n_heads=2, attn_dim=8, n_mm_tokens=2)


def save_untrained_params(path) -> None:
    save_params(init_encoder_params(CLI_ENGINE, seed=0), CLI_ENGINE, path)


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
    assert run_cli("augment", "--kb", str(out / "kb.jsonl"),
                   "--out", str(out / "augmented.jsonl")) == 0
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

    def test_datagen_rejects_what_synth_rejects(self, workdir, tmp_path):
        # synth runs at fraction_shortcut 0, so every draft is shortcut-free; datagen
        # reads the seed and samples_per_doc from the config synth ran with
        _, cfg, out = workdir
        dg_out = tmp_path / "generated.jsonl"
        assert run_cli("--config", str(cfg), "datagen", "--kb", str(out / "augmented.jsonl"),
                       "--typemap", str(out / "typemap.json"), "--out", str(dg_out)) == 0
        sidecar = dg_out.with_suffix(".rejected.jsonl").read_bytes()
        assert sidecar and sidecar == (out / "rejected.jsonl").read_bytes()


class TestPipelineCommands:
    def test_augment_datagen_train_index_search_eval(self, workdir, tmp_path):
        root, cfg, out = workdir
        aug_out = tmp_path / "aug.jsonl"
        assert run_cli("augment", "--kb", str(out / "kb.jsonl"), "--out", str(aug_out)) == 0
        kb = str(aug_out)

        dg_out = tmp_path / "generated.jsonl"
        assert run_cli(
            "--config", str(cfg), "--set", "synth.samples_per_doc=2", "datagen", "--kb", kb,
            "--typemap", str(out / "typemap.json"), "--out", str(dg_out),
        ) == 0
        assert dg_out.is_file()
        assert dg_out.with_suffix(".rejected.jsonl").is_file()

        params = tmp_path / "params.mprm"
        stats = tmp_path / "stats.json"
        assert run_cli(
            "--config", str(cfg), "train", "--kb", kb,
            "--samples", str(out / "train.jsonl"), "--out", str(params),
            "--stats", str(stats),
        ) == 0
        assert params.is_file()
        payload = json.loads(stats.read_text())
        assert payload["losses"] and payload["final_checksum"]

        index = tmp_path / "kb.mvli"
        assert run_cli(
            "--config", str(cfg), "index", "--kb", kb, "--params", str(params),
            "--out", str(index),
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
        ) == 0
        text = report.read_text()
        assert text.splitlines()[0] == "benchmark,split,config_flags,metric,k,value"

    def test_eval_with_index_path(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "augmented.jsonl")
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

    def test_eval_raises_the_candidate_cap_to_k(self, workdir, tmp_path):
        """As `search` does, `eval --index` raises a configured cap below its
        ranking depth of 10 to it: cap 5 runs and reports what cap 10 does."""
        root, cfg, out = workdir
        kb = str(out / "augmented.jsonl")
        params = tmp_path / "p.mprm"
        save_untrained_params(params)
        index = tmp_path / "kb.mvli"
        assert run_cli("--config", str(cfg), "index", "--kb", kb,
                       "--params", str(params), "--out", str(index)) == 0
        reports = []
        for cap in (5, 10):
            report = tmp_path / f"report-{cap}.csv"
            assert run_cli("--config", str(cfg), "--set", f"index.candidate_doc_cap={cap}",
                           "eval", "--kb", kb, "--params", str(params),
                           "--samples", str(out / "test_seen.jsonl"),
                           "--index", str(index), "--report-out", str(report)) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_augment_cap_reaches_the_index(self, workdir, tmp_path):
        """Under `augment --cap 0` each document keeps no related entity, so
        index encodes its text rows and its main image's global and fused
        rows alone."""
        root, cfg, out = workdir
        capped = tmp_path / "capped.jsonl"
        assert run_cli("augment", "--kb", str(out / "kb.jsonl"), "--out", str(capped),
                       "--cap", "0") == 0
        params = tmp_path / "p.mprm"
        save_untrained_params(params)
        index = tmp_path / "kb.mvli"
        assert run_cli("--config", str(cfg), "index", "--kb", str(capped),
                       "--params", str(params), "--out", str(index)) == 0
        kb_aug = load_augmented(capped)
        assert any(a.related for a in load_augmented(out / "augmented.jsonl").values())
        built = load_index(index)
        assert built.doc_ids == sorted(kb_aug)
        assert built.doc_sizes.tolist() == [
            len(kb_aug[d].text_tokens) + 1 + CLI_ENGINE.n_mm_tokens for d in built.doc_ids]

    def test_commands_after_augment_do_not_augment(self, workdir, tmp_path, monkeypatch):
        root, cfg, out = workdir

        def refuse(*args, **kwargs):
            raise AssertionError("augment_kb called after mvli augment")

        monkeypatch.setattr(cli.aug, "augment_kb", refuse)
        kb, params = str(out / "augmented.jsonl"), tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "datagen", "--kb", kb,
                       "--typemap", str(out / "typemap.json"),
                       "--out", str(tmp_path / "generated.jsonl")) == 0
        assert run_cli("--config", str(cfg), "train", "--kb", kb,
                       "--samples", str(out / "train.jsonl"), "--out", str(params)) == 0
        assert run_cli("--config", str(cfg), "index", "--kb", kb, "--params", str(params),
                       "--out", str(tmp_path / "kb.mvli")) == 0
        assert run_cli("--config", str(cfg), "eval", "--kb", kb, "--params", str(params),
                       "--samples", str(out / "test_seen.jsonl"),
                       "--report-out", str(tmp_path / "report.csv")) == 0

    @pytest.mark.parametrize("command", ["datagen", "train", "index", "eval", "ablate",
                                         "probe"])
    def test_raw_kb_names_augment(self, workdir, tmp_path, capsys, command):
        """A raw KB where the augmented one belongs is a data error that says
        which command writes the augmented KB."""
        root, cfg, out = workdir
        params = tmp_path / "p.mprm"
        save_untrained_params(params)
        train, test = str(out / "train.jsonl"), str(out / "test_seen.jsonl")
        dest = str(tmp_path / "x")
        study = ["--train-samples", train, "--test-samples", test, "--report-out", dest]
        rest = {"datagen": ["--typemap", str(out / "typemap.json"), "--out", dest],
                "train": ["--samples", train, "--out", dest],
                "index": ["--params", str(params), "--out", dest],
                "eval": ["--params", str(params), "--samples", test, "--report-out", dest],
                "ablate": study,
                "probe": [*study, "--mode", "image_only"]}[command]
        capsys.readouterr()
        assert run_cli("--config", str(cfg), command, "--kb", str(out / "kb.jsonl"), *rest) == 3
        err = capsys.readouterr().err
        assert "kb.jsonl:1: a raw KB record" in err and "`mvli augment`" in err
        assert not Path(dest).exists()


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

    def test_negative_split_size_is_config_error(self, tmp_path):
        assert run_cli("--set", "synth.n_test_seen=-3", "synth",
                       "--out-dir", str(tmp_path / "w")) == 2

    def test_negative_cap_is_config_error(self, workdir, tmp_path):
        _, _, out = workdir
        aug_out = tmp_path / "aug.jsonl"
        assert run_cli("augment", "--kb", str(out / "kb.jsonl"), "--out", str(aug_out),
                       "--cap", "-1") == 2
        assert not aug_out.exists()

    def test_samples_per_doc_below_one_is_config_error(self, workdir, tmp_path):
        _, _, out = workdir
        dg_out = tmp_path / "generated.jsonl"
        assert run_cli("--set", "synth.samples_per_doc=0", "datagen",
                       "--kb", str(out / "augmented.jsonl"),
                       "--typemap", str(out / "typemap.json"), "--out", str(dg_out)) == 2
        assert not dg_out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_entities_per_doc_is_config_error(self, tmp_path, value):
        out = tmp_path / "w"
        assert run_cli("--set", f"synth.entities_per_doc={value}", "--set", "synth.n_docs=20",
                       "synth", "--out-dir", str(out)) == 2
        assert not (out / "train.jsonl").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_config_error(self, workdir, tmp_path, value):
        root, cfg, out = workdir
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "--set", f"train.learning_rate={value}", "train",
                       "--kb", str(out / "augmented.jsonl"), "--samples", str(out / "train.jsonl"),
                       "--out", str(params)) == 2
        assert not params.exists()

    def test_negative_kmeans_iters_is_config_error(self, workdir, tmp_path):
        root, cfg, out = workdir
        params = tmp_path / "p.mprm"
        save_untrained_params(params)
        index = tmp_path / "kb.mvli"
        assert run_cli("--config", str(cfg), "--set", "index.kmeans_iters=-5", "index",
                       "--kb", str(out / "augmented.jsonl"), "--params", str(params),
                       "--out", str(index)) == 2
        assert not index.exists()

    @pytest.mark.parametrize("override", ["engine.dim=100000000",
                                          "engine.n_mm_tokens=100000000"])
    def test_oversized_encoder_is_config_error(self, workdir, tmp_path, override):
        root, cfg, out = workdir
        params = tmp_path / "p.mprm"
        proc = run_cli_capped(["--config", str(cfg), "--set", override, "train",
                               "--kb", str(out / "augmented.jsonl"),
                               "--samples", str(out / "train.jsonl"), "--out", str(params)])
        assert proc.returncode == 2, proc.stderr
        assert "parameters" in proc.stderr
        assert not params.exists()

    def test_lone_surrogate_doc_id_is_data_error(self, workdir, tmp_path):
        """Valid JSON, not text: rejected while the augmented KB is read,
        before any encoding, with no traceback and no index file."""
        root, cfg, out = workdir
        lines = (out / "augmented.jsonl").read_text(encoding="utf-8").splitlines(True)
        record = json.loads(lines[-1])
        record["doc_id"] = "\ud800x"
        kb = tmp_path / "augmented.jsonl"
        kb.write_text("".join(lines[:-1]) + json.dumps(record) + "\n", encoding="utf-8")
        params = tmp_path / "p.mprm"
        save_untrained_params(params)
        index = tmp_path / "kb.mvli"
        proc = run_cli_capped(["--config", str(cfg), "index", "--kb", str(kb),
                               "--params", str(params), "--out", str(index)])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"augmented.jsonl:{len(lines)}: bad augmented KB record" in proc.stderr
        assert not index.exists()

    def test_config_without_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("n_docs = 30\n")
        assert run_cli("--config", str(cfg), "synth", "--out-dir", str(tmp_path / "w")) == 2

    def test_fewer_samples_than_a_batch_is_data_error(self, workdir, tmp_path):
        root, cfg, out = workdir  # cfg sets batch_size = 4
        few = tmp_path / "few.jsonl"
        few.write_text("".join((out / "train.jsonl").read_text().splitlines(True)[:3]))
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "train", "--kb", str(out / "augmented.jsonl"),
                       "--samples", str(few), "--out", str(params)) == 3
        assert not params.exists()

    def test_overflowing_update_is_numeric_error(self, workdir, tmp_path):
        """One step at a learning rate near the float maximum takes mm_proj.b2
        to infinity in this shape: train fails as load_params would, and writes
        neither checkpoint nor stats."""
        root, cfg, out = workdir  # cfg sets batch_size = 4
        one_batch = tmp_path / "batch.jsonl"
        one_batch.write_text("".join((out / "train.jsonl").read_text().splitlines(True)[:4]))
        params, stats = tmp_path / "p.mprm", tmp_path / "stats.json"
        proc = run_cli_capped(["--config", str(cfg), "--set", "train.learning_rate=1.79e308",
                               "--set", "engine.attn_dim=2", "--set", "engine.n_heads=1",
                               "train", "--kb", str(out / "augmented.jsonl"),
                               "--samples", str(one_batch), "--out", str(params),
                               "--stats", str(stats)])
        assert proc.returncode == 4, proc.stderr
        assert "non-finite values in parameter tensor 'mm_proj.b2'" in proc.stderr
        assert not params.exists() and not stats.exists()

    def test_finite_checkpoint_that_cannot_encode_is_numeric_error(self, workdir, tmp_path):
        """At a learning rate of 1e308 one step leaves every parameter finite,
        but the forward overflows on them: train fails as `mvli index` on the
        checkpoint would, with no RuntimeWarning first, and writes neither
        checkpoint nor stats."""
        root, cfg, out = workdir  # cfg sets batch_size = 4
        one_batch = tmp_path / "batch.jsonl"
        one_batch.write_text("".join((out / "train.jsonl").read_text().splitlines(True)[:4]))
        params, stats = tmp_path / "p.mprm", tmp_path / "stats.json"
        proc = run_cli_capped(["--config", str(cfg), "--set", "train.learning_rate=1e308",
                               "train", "--kb", str(out / "augmented.jsonl"),
                               "--samples", str(one_batch), "--out", str(params),
                               "--stats", str(stats)])
        assert proc.returncode == 4, proc.stderr
        assert "trained parameters cannot encode sample" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not params.exists() and not stats.exists()

    @pytest.mark.parametrize("content,message", [
        (b"[synth]\nn_docs = 20%\n", "bad value for synth.n_docs: '20%'"),
        (b"[synth]\nn_docs = 2\xff0\n", "unreadable config file"),
        (b"[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
    ], ids=["percent_sign", "not_utf8", "default_section"])
    def test_bad_config_file_is_config_error(self, tmp_path, content, message):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(content)
        proc = run_cli_capped(["--config", str(cfg), "synth", "--out-dir", str(tmp_path / "w")])
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_corrupt_index_is_data_error(self, workdir, tmp_path):
        root, cfg, out = workdir
        kb = str(out / "augmented.jsonl")
        params = tmp_path / "p.mprm"
        assert run_cli("--config", str(cfg), "train", "--kb", kb,
                       "--samples", str(out / "train.jsonl"), "--out", str(params)) == 0
        bad = tmp_path / "bad.mvli"
        bad.write_bytes(b"JUNKJUNK")
        assert run_cli("search", "--index", str(bad), "--params", str(params),
                       "--image-key", "img::x") == 3


def _readme_run_ini() -> str:
    match = re.search(r"Example `run\.ini`:\s*```ini\n(.*?)```", README.read_text(), re.S)
    assert match, "README.md has no fenced run.ini example"
    return match.group(1)


def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's `mvli` pipeline, continuations joined."""
    match = re.search(r"```sh\n(mvli .*?)```", README.read_text(), re.S)
    assert match, "README.md has no fenced mvli pipeline"
    return [shlex.split(line)[1:] for line in match.group(1).replace("\\\n", " ").splitlines()]


class TestReadmeConfig:
    def test_readme_pipeline_parses(self):
        """Every `mvli` line of the README runs one command with options its
        parser has; a stale option fails here rather than for a reader."""
        parser = build_parser()
        commands = [parser.parse_args(argv).command for argv in _readme_commands()]
        assert sorted(commands) == sorted(COMMANDS)

    def test_readme_run_ini_runs_synth(self, tmp_path):
        """The README's example config, inline comments included, runs as written."""
        cfg = tmp_path / "run.ini"
        cfg.write_text(_readme_run_ini())
        out = tmp_path / "world"
        assert run_cli("--config", str(cfg), "synth", "--out-dir", str(out)) == 0
        assert (out / "test_seen.jsonl").read_text().strip()


    def test_readme_run_ini_names_every_key(self):
        """Every config key in schema order, a key left unset as a comment."""
        named: dict[str, list[str]] = {}
        for line in _readme_run_ini().splitlines():
            if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
                section = named.setdefault(header[1], [])
            elif key := re.match(r"[;#]?\s*(\w+)\s*=", line.strip()):
                section.append(key[1])
        assert named == {name: list(keys) for name, keys in _SCHEMA.items()}


MISSING = dataclasses.MISSING


def _library_keys():
    """(section, target, key, default) for each field or keyword with a
    default of the library's config types and of build_index, but seed."""
    for section, targets in (("engine", (EncoderConfig,)),
                             ("index", (build_index, SearchParams)),
                             ("train", (TrainConfig,)),
                             ("synth", (SynthConfig,))):
        for target in targets:
            if dataclasses.is_dataclass(target):
                defaults = {f.name: f.default_factory() if f.default is MISSING else f.default
                            for f in dataclasses.fields(target)
                            if f.default is not MISSING or f.default_factory is not MISSING}
            else:
                defaults = {name: param.default
                            for name, param in inspect.signature(target).parameters.items()
                            if param.default is not param.empty}
            for key, default in defaults.items():
                if key != "seed":
                    yield pytest.param(section, target, key, default, id=f"{section}.{key}")


class TestConfigKeys:
    @pytest.mark.parametrize("section,target,key,default",
                             [p for p in _library_keys() if p.values[3] is not None])
    def test_key_set_to_its_default_reads_as_the_default(self, section, target, key, default):
        """A key whose default is None is set by leaving it out."""
        text = default.label() if isinstance(default, EncoderFlags) else str(default)
        kwargs = RunConfig.load(None, [f"{section}.{key}={text}"]).kwargs(section, target)
        assert kwargs == {key: default} and type(kwargs[key]) is type(default)
        if dataclasses.is_dataclass(target):
            required = {f.name: 1 for f in dataclasses.fields(target)
                        if f.default is MISSING and f.default_factory is MISSING}
            assert target(**required, **kwargs) == target(**required)

    @pytest.mark.parametrize("section,target,key,default", list(_library_keys()))
    def test_bad_value_names_its_key(self, section, target, key, default):
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            RunConfig.load(None, [f"{section}.{key}=@"])


class TestHelp:
    def test_every_command_has_help(self, capsys):
        parser = build_parser()
        for command in COMMANDS:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--help"])
            assert exc.value.code == 0
            assert f"usage: mvli {command}" in capsys.readouterr().out


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
