import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import pcmlab.stationary as stationary
from pcmlab.cli import ConfigError, config_digest, load_config, main

from conftest import negate_first_at_call

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = ROOT / "configs" / "paper_section5.json"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# One malformed field per case: (dotted field, value, expected message part).
MALFORMED = [
    ("trials", 10.5, "trials must be an integer"),
    ("horizon", 10.5, "horizon must be an integer"),
    ("ergodic_length", 10.5, "ergodic_length must be an integer"),
    ("n_e_bins", 10.5, "n_e_bins must be an integer"),
    ("n_d", 10.5, "n_d must be an integer"),
    ("n_s", 2.5, "n_s must be an integer"),
    ("master_seed", 1.5, "master_seed must be an integer"),
    # With n_s = 1, neighbouring cluster intervals overlap.
    ("n_s", 1, "config.n_s must be >= 2, got 1"),
    # Seeds are mixed modulo 2**64, so one outside would alias one inside.
    ("master_seed", -1, r"config.master_seed must lie in \[0, 2\*\*64\), got -1"),
    ("master_seed", 2**64, r"config.master_seed must lie in \[0, 2\*\*64\), got 18446744073709551616"),
    ("trials", True, "trials must be an integer"),
    ("plant.da", [[[0.0, 1.0], [0.0]]], "config.plant.da"),
    ("plant.db", [[["x", 0.0], [0.0, 0.0]]], "config.plant.db"),
    ("plant.dc", [[[1.0, 2.0, 3.0], [1.0]]], "config.plant.dc"),
    ("plant.mu", [1.0], "config.plant"),
    ("channel.alpha", [0.9], "config.channel"),
    ("plant", [1, 2], "config.plant must be a JSON object"),
    ("channel", [0.9, 0.1], "config.channel must be a JSON object"),
    # Every leaf is a finite JSON number: no bool, string, NaN or infinity.
    ("init_pcm_scale", True, "config.init_pcm_scale must be a finite number"),
    ("delta_max", True, "config.delta_max must be a finite number"),
    ("init_p1", False, "config.init_p1 must be a finite number"),
    ("plant.mu", True, "config.plant.mu must be a finite number"),
    ("channel.alpha", "0.95", "config.channel.alpha must be a finite number"),
    ("plant.mu", "0.8", "config.plant.mu must be a finite number"),
    ("plant.a", [["1.1234", 0.0196], [0.0, 0.9802]], r"config.plant.a\[0\]\[0\] must be a finite"),
    ("plant.a", [[1.1234, 0.0196], [True, 0.9802]], r"config.plant.a\[1\]\[0\] must be a finite"),
    ("init_pcm_scale", float("nan"), "config.init_pcm_scale must be a finite number"),
    ("delta_max", float("inf"), "config.delta_max must be a finite number"),
    # A bin width that underflows to 0.0 would bin a sample of 0.0 as NaN.
    ("delta_max", 1e-322, "config.delta_max 1e-322 over n_e_bins 200 gives a bin width of 0.0"),
]


class TestLoadConfig:
    def test_bundled_reference_config(self):
        cfg = load_config(REFERENCE_CONFIG)
        np.testing.assert_allclose(cfg.plant.a, [[1.1234, 0.0196], [0.0, 0.9802]])
        np.testing.assert_allclose(cfg.plant.q.entries, [[1.9608, 0.0195], [0.0195, 1.9605]])
        np.testing.assert_allclose(cfg.plant.c, [[1.0, -1.0]])
        np.testing.assert_allclose(cfg.plant.da[0], [[0.0, 0.099], [0.0, 0.0]])
        assert cfg.plant.mu == 0.8
        assert cfg.channel.alpha == 0.95 and cfg.channel.beta == 0.05
        assert cfg.trials == 5000 and cfg.horizon == 400

    def test_all_bundled_configs_validate(self):
        for path in (ROOT / "configs").glob("*.json"):
            cfg = load_config(path)
            assert cfg.plant.n == 2

    def test_full_scale_config_carries_paper_settings(self):
        cfg = load_config(ROOT / "configs" / "paper_full_scale.json")
        assert cfg.trials == 50_000
        assert cfg.horizon == 1_000
        assert cfg.effective_ergodic_length == 50_000

    def test_missing_channel_alpha_names_field(self, tmp_path):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        del raw["channel"]["alpha"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="config.channel.alpha"):
            load_config(path)

    def test_boundary_alpha_rejected(self, tmp_path):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["channel"]["alpha"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="alpha"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["fancy_option"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="fancy_option"):
            load_config(path)

    @pytest.mark.parametrize(
        "field, value, message", MALFORMED, ids=[f"{f}={v!r}".replace(" ", "") for f, v, _ in MALFORMED]
    )
    def test_malformed_field_is_a_config_error(self, tmp_path, field, value, message):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        *sections, key = field.split(".")
        section = raw
        for name in sections:
            section = section[name]
        section[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["master_seed"] = seed
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).master_seed == seed

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"plant": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_digest_stable(self):
        a = config_digest(load_config(REFERENCE_CONFIG))
        b = config_digest(load_config(REFERENCE_CONFIG))
        assert a == b and len(a) == 64


class TestCommands:
    def test_solve_reproducible_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("solve", "--config", REFERENCE_CONFIG, "--out", out1) == 0
        assert run_cli("solve", "--config", REFERENCE_CONFIG, "--out", out2) == 0
        assert (out1 / "p_star.csv").read_bytes() == (out2 / "p_star.csv").read_bytes()

    def test_solve_matches_reference(self, tmp_path):
        assert run_cli("solve", "--config", REFERENCE_CONFIG, "--out", tmp_path) == 0
        rows = (tmp_path / "p_star.csv").read_text().strip().splitlines()[1:]
        got = np.array([[float(tok) for tok in row.split(",")] for row in rows])
        assert np.max(np.abs(got - [[21.3283, 20.2784], [20.2784, 20.0754]])) <= 5e-4

    def test_validate_writes_report(self, tmp_path):
        assert run_cli("validate", "--config", REFERENCE_CONFIG, "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "validate.json").read_text())
        assert payload["structure"]["controllable"] is True
        assert payload["structure"]["observable"] is True
        assert payload["structure"]["spectral_radius_a0"] == pytest.approx(1.1234, abs=1e-9)
        np.testing.assert_allclose(
            payload["distance_ladder"][1:],
            [0.81725, 1.1519, 1.3900, 1.5855, 1.7572],
            atol=5e-4,
        )

    def test_validate_singular_transition_exits_2(self, tmp_path, capsys):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["plant"]["a"] = [[0.0, 0.0], [0.0, 0.0]]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(raw))
        assert run_cli("validate", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "singular" in err or "invertib" in err or "ill-conditioned" in err

    def test_missing_seed_stochastic_command_exits_2(self, tmp_path, capsys):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["master_seed"] = None
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(raw))
        assert run_cli("empirical", "--config", path, "--out", tmp_path / "o") == 2
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("ergodic", "not positive definite"),
        ("empirical", "not positive definite"),
        # rate and compare reach the ergodic samples without run_ergodic.
        ("rate", "not positive definite"),
        ("compare", "not positive definite"),
    ])
    def test_numerical_breakdown_exits_3(self, tmp_path, capsys, command, message):
        # Heavy loss with the transition scaled by 8: long drop runs blow the
        # PCM up until it is no longer positive definite.
        raw = json.loads((ROOT / "configs" / "paper_section5_heavy.json").read_text())
        raw["plant"]["a"] = [[8 * x for x in row] for row in raw["plant"]["a"]]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(command, "--config", path, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and message in err
        assert "step" in err and "drops" in err
        if command == "empirical":
            assert "trial" in err

    def test_enumeration_breakdown_exits_3_naming_the_word(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(stationary, "_advance", negate_first_at_call(2))
        assert run_cli("approx", "--config", REFERENCE_CONFIG, "--method", "enumerate",
                       "--max-len", 5, "--eps-p", 1e-30, "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "'001' (depth 2)" in err
        assert not (tmp_path / "atoms.csv").exists()

    def test_approx_delta_atoms_roundtrip(self, tmp_path):
        assert run_cli("approx", "--config", REFERENCE_CONFIG, "--method", "delta",
                       "--out", tmp_path) == 0
        text = (tmp_path / "atoms.csv").read_text().strip().splitlines()
        assert text[0] == "index,distance,mass,code"
        masses = [float(r.split(",")[2]) for r in text[1:]]
        # exact geometric masses re-parse to the in-memory values
        expected = [0.95 * 0.05**i if i else 0.95 for i in range(6)]
        assert masses == pytest.approx(expected, rel=1e-12)
        codes = [r.split(",")[3] for r in text[1:]]
        assert codes == ["", "0", "00", "000", "0000", "00000"]

    def test_approx_enumerate_runs(self, tmp_path):
        assert run_cli("approx", "--config", REFERENCE_CONFIG, "--method", "enumerate",
                       "--max-len", 8, "--out", tmp_path) == 0
        lines = (tmp_path / "atoms.csv").read_text().strip().splitlines()
        masses = [float(r.split(",")[2]) for r in lines[1:]]
        assert sum(masses) <= 1.0 + 1e-9

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        from pcmlab import delta_distribution
        from pcmlab.experiments import prepare

        cfg = load_config(REFERENCE_CONFIG)
        prep = prepare(cfg)
        dist = delta_distribution(prep.mp, prep.p_star, 0.95, cfg.n_d)
        assert run_cli("approx", "--config", REFERENCE_CONFIG, "--method", "delta",
                       "--out", tmp_path) == 0
        rows = (tmp_path / "atoms.csv").read_text().strip().splitlines()[1:]
        for row, atom in zip(rows, dist.atoms):
            _, dist_txt, mass_txt, _ = row.split(",")
            assert float(dist_txt) == atom.distance
            assert float(mass_txt) == atom.mass

    def test_manifest_written_with_digest(self, tmp_path):
        assert run_cli("solve", "--config", REFERENCE_CONFIG, "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config_digest"] == config_digest(load_config(REFERENCE_CONFIG))
        assert manifest["tool_version"]
        assert any(p.endswith("p_star.csv") for p in manifest["output_paths"])

    def test_outputs_confined_to_out_dir(self, tmp_path):
        out = tmp_path / "only_here"
        before = set(tmp_path.iterdir())
        assert run_cli("solve", "--config", REFERENCE_CONFIG, "--out", out) == 0
        after = set(tmp_path.iterdir())
        assert after - before == {out}

    def test_channel_override_flags(self, tmp_path):
        assert run_cli("approx", "--config", REFERENCE_CONFIG, "--method", "delta",
                       "--alpha", 0.08, "--beta", 0.92, "--out", tmp_path) == 0
        rows = (tmp_path / "atoms.csv").read_text().strip().splitlines()[1:]
        assert float(rows[0].split(",")[2]) == pytest.approx(0.08, rel=1e-12)

    def test_compare_emits_cluster_table(self, tmp_path):
        assert run_cli("compare", "--config", REFERENCE_CONFIG, "--out", tmp_path,
                       "--trials", 1000, "--ergodic-length", 4000) == 0
        lines = (tmp_path / "clusters.csv").read_text().strip().splitlines()
        assert lines[0] == "distance,mass_delta,mass_ergodic,mass_empirical"
        assert lines[-1].startswith("unassigned,")
        assert len(lines) == 1 + 6 + 1  # header + clusters + unassigned row

    def test_simulate_writes_trajectory(self, tmp_path):
        assert run_cli("simulate", "--config", REFERENCE_CONFIG, "--horizon", 50,
                       "--out", tmp_path) == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("k,gamma,x_true_0")
        assert len(lines) == 52  # header + initial row + 50 steps

    def test_rate_command(self, tmp_path):
        assert run_cli("rate", "--config", REFERENCE_CONFIG, "--ergodic-length", 4000,
                       "--checkpoints", "500,2000", "--out", tmp_path) == 0
        lines = (tmp_path / "rate.csv").read_text().strip().splitlines()
        assert lines[0] == "n,sup_gap,envelope_ratio"
        assert len(lines) == 3

    @pytest.mark.parametrize("length, checkpoints", [
        (3, None),
        (50, [10, 25]),
        (150, [10, 75, 100]),
    ])
    def test_rate_default_checkpoints_fit_the_length(self, tmp_path, capsys, length, checkpoints):
        code = run_cli("rate", "--config", REFERENCE_CONFIG, "--ergodic-length", length,
                       "--out", tmp_path)
        if checkpoints is None:
            assert code == 2
            assert f"ergodic length {length}" in capsys.readouterr().err
            assert not (tmp_path / "rate.csv").exists()
        else:
            assert code == 0
            rows = (tmp_path / "rate.csv").read_text().strip().splitlines()[1:]
            assert [int(r.split(",")[0]) for r in rows] == checkpoints

    @pytest.mark.parametrize("checkpoint", ["-5", "0", "1"])
    def test_rate_rejects_checkpoints_below_two(self, tmp_path, capsys, checkpoint):
        # n = 1 would give an infinite envelope ratio, n = 0 a NaN one, and
        # a negative n would read the running average from the end of the run.
        assert run_cli("rate", "--config", REFERENCE_CONFIG, "--ergodic-length", 2000,
                       f"--checkpoints={checkpoint},10", "--out", tmp_path) == 2
        assert "checkpoints must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "rate.csv").exists()

    @pytest.mark.parametrize("tokens, bad", [("10,abc", "'abc'"), ("10,,20", "''"), ("", "''")])
    def test_rate_names_the_bad_checkpoint(self, tmp_path, capsys, tokens, bad):
        assert run_cli("rate", "--config", REFERENCE_CONFIG, "--ergodic-length", 2000,
                       f"--checkpoints={tokens}", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "--checkpoints" in err and f"{bad} is not" in err
        assert not (tmp_path / "rate.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--trials", "0"),
        ("--horizon", "0"),
        ("--ergodic-length", "0"),
        ("--alpha", "1.5"),
        ("--beta", "0"),
    ])
    def test_invalid_override_exits_2(self, tmp_path, capsys, flag, value):
        assert run_cli("compare", "--config", REFERENCE_CONFIG, flag, value,
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure: command-line override:")
        if flag == "--seed":
            assert f"master_seed must lie in [0, 2**64), got {value}" in err
        assert "Traceback" not in err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("validate", "--config", ROOT / "configs", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure: cannot read config file")
        assert "Traceback" not in err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(REFERENCE_CONFIG.read_bytes() + b"\n\xff")
        assert run_cli("validate", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: cannot read config file {path}")
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert run_cli("validate", "--config", REFERENCE_CONFIG, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation failure: cannot use {out} as the output directory")
        assert out.read_text() == "keep\n"

    def test_tiny_delta_max_puts_every_sample_in_overflow(self, tmp_path, capsys):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["delta_max"] = 1e-20
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("ergodic", "--config", path, "--ergodic-length", 500, "--out", out) == 0
        assert "501 time samples; histogram overflow 501" in capsys.readouterr().out
        rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 200 and all(row.endswith(",0,0.0") for row in rows)

    def test_ergodic_and_empirical_commands(self, tmp_path):
        for cmd in ("empirical", "ergodic"):
            out = tmp_path / cmd
            assert run_cli(cmd, "--config", REFERENCE_CONFIG, "--trials", 200,
                           "--horizon", 100, "--ergodic-length", 500, "--out", out) == 0
            assert (out / "samples.csv").exists()
            hist_lines = (out / "histogram.csv").read_text().strip().splitlines()
            assert hist_lines[0] == "bin_lo,bin_hi,count,fraction"
            assert len(hist_lines) == 201


# The plant of tests/test_riccati.py::TestSolveDare::test_structure_gate: the
# input never reaches the second mode, so the modified plant is not
# controllable.
UNCONTROLLABLE_PLANT = {
    "a": [[2.0, 0.0], [0.0, 3.0]],
    "b": [[1.0], [0.0]],
    "c": [[1.0, 1.0]],
    "q": [[1.0]],
    "r": [[1.0]],
    "mu": 1.0,
}


@pytest.mark.parametrize("command", ["validate", "solve", "compare"])
def test_structure_gate_exits_2(tmp_path, capsys, command):
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["plant"] = UNCONTROLLABLE_PLANT
    path = tmp_path / "uncontrollable.json"
    path.write_text(json.dumps(raw))
    assert run_cli(command, "--config", path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure:") and "controllable" in err


# The committed desk tables, each produced by `compare` at its config's
# master_seed.
PINNED_TABLES = [
    ("low_loss", "paper_section5.json"),
    ("moderate_loss", "paper_section5_moderate.json"),
    ("heavy_loss", "paper_section5_heavy.json"),
]


class TestPinnedResults:
    @pytest.mark.parametrize("case, config", PINNED_TABLES)
    def test_compare_reproduces_results_bytes(self, tmp_path, case, config):
        assert run_cli("compare", "--config", ROOT / "configs" / config, "--out", tmp_path) == 0
        pinned = (ROOT / "results" / case / "clusters.csv").read_bytes()
        assert (tmp_path / "clusters.csv").read_bytes() == pinned

    @pytest.mark.parametrize("case, config", PINNED_TABLES)
    def test_validate_ladder_is_the_results_distance_column(self, tmp_path, case, config):
        assert run_cli("validate", "--config", ROOT / "configs" / config, "--out", tmp_path) == 0
        ladder = json.loads((tmp_path / "validate.json").read_text())["distance_ladder"]
        rows = (ROOT / "results" / case / "clusters.csv").read_text().splitlines()[1:-1]
        assert ladder == [float(row.split(",")[0]) for row in rows]

    @pytest.mark.parametrize("case, config", PINNED_TABLES)
    def test_config_digest_is_the_results_one(self, case, config):
        manifest = json.loads((ROOT / "results" / case / "manifest.json").read_text())
        assert config_digest(load_config(ROOT / "configs" / config)) == manifest["config_digest"]
