"""Config parsing, artifact layout, and determinism of the CLI runner."""

import json
from pathlib import Path

import pytest

from qteach.cli import ExperimentConfig, format_config, main, parse_config, run
from qteach.errors import ConfigParseError

MINIMAL = """
experiment = teacher_student
teacher = reuploading:2
students = dissipative_qp, reuploading:2
"""

SMALL_RUN = """
# tiny smoke-test configuration
experiment = teacher_student
teacher = reuploading:2
students = dissipative_qp
n_seeds = 2
resolution = 5
map_resolution = 7
epochs = 4
seed = 9
"""


class TestParseConfig:
    def test_defaults_applied(self):
        config = parse_config(MINIMAL)
        assert config.n_seeds == 10
        assert config.resolution == 21
        assert config.epochs == 150
        assert config.map_resolution == 51
        assert config.optimizer == "adam"

    def test_layered_architecture_name(self):
        config = parse_config(MINIMAL)
        assert config.teacher == "reuploading:2"
        assert config.students == ("dissipative_qp", "reuploading:2")

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config("experiment = teacher_student\nteacher = reuploading:0\nstudents = dissipative_qp\n")

    def test_unknown_architecture(self):
        with pytest.raises(ConfigParseError, match="unknown architecture"):
            parse_config("experiment = teacher_student\nteacher = qubitron\nstudents = dissipative_qp\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config("experiment = labelling\nnostalgia = 3\n")

    def test_malformed_value_reports_key(self):
        with pytest.raises(ConfigParseError, match="epochs"):
            parse_config("experiment = labelling\nepochs = soon\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigParseError, match="experiment"):
            parse_config("seed = 3\n")

    def test_missing_students(self):
        with pytest.raises(ConfigParseError):
            parse_config("experiment = teacher_student\nteacher = dissipative_qp\n")

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# hello\n\nexperiment = labelling  # trailing\n")
        assert config.experiment == "labelling"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config("experiment = labelling\nseed = 1\nseed = 2\n")

    def test_round_trip(self):
        config = parse_config(SMALL_RUN)
        assert parse_config(format_config(config)) == config


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = parse_config(SMALL_RUN)
    config.out = str(out)
    status = run(config)
    return status, out


class TestRun:
    def test_exit_status_zero(self, artifacts):
        status, _ = artifacts
        assert status == 0

    def test_summary_schema(self, artifacts):
        _, out = artifacts
        summary = json.loads((out / "summary.json").read_text())
        assert summary["teacher"] == "reuploading:2"
        student = summary["students"][0]
        assert {"architecture", "mean_final_loss", "mean_rel_entropy", "mean_accuracy"} <= set(student)

    def test_expected_files_exist(self, artifacts):
        _, out = artifacts
        for name in [
            "config.txt",
            "loss_dissipative_qp_0.csv",
            "loss_dissipative_qp_1.csv",
            "loss_dissipative_qp_binary_0.csv",
            "accuracy_dissipative_qp_binary_0.csv",
            "map_teacher_0.csv",
            "map_dissipative_qp_0.csv",
        ]:
            assert (out / name).is_file(), name

    def test_curve_csv_layout(self, artifacts):
        _, out = artifacts
        lines = (out / "loss_dissipative_qp_0.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 4  # header + epochs

    def test_rerun_byte_identical(self, artifacts, tmp_path):
        _, out = artifacts
        config = parse_config(SMALL_RUN)
        config.out = str(tmp_path / "again")
        assert run(config) == 0
        for name in ["summary.json", "loss_dissipative_qp_0.csv", "map_teacher_1.csv"]:
            assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


FAILING_RUN = SMALL_RUN + "learning_rate = 1e308\n"  # training diverges


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestRerunIntoSameDirectory:
    """An output directory describes exactly one run."""

    @staticmethod
    def _run(text, out, n_seeds=None):
        config = parse_config(text)
        config.out = str(out)
        if n_seeds is not None:
            config.n_seeds = n_seeds
        return run(config)

    def test_fewer_seeds_leave_no_stale_files(self, tmp_path):
        assert self._run(SMALL_RUN, tmp_path) == 0
        (tmp_path / "notes.txt").write_text("keep me")
        (tmp_path / "plots").mkdir()
        assert self._run(SMALL_RUN, tmp_path, n_seeds=1) == 0
        assert list(tmp_path.glob("*_1.csv")) == []
        assert (tmp_path / "loss_dissipative_qp_0.csv").is_file()
        assert (tmp_path / "notes.txt").read_text() == "keep me"
        assert (tmp_path / "plots").is_dir()

    def test_failed_rerun_leaves_no_old_results(self, tmp_path):
        assert self._run(SMALL_RUN, tmp_path) == 0
        assert self._run(FAILING_RUN, tmp_path) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["FAILED.txt", "config.txt"]

    def test_failure_marker_names_the_diverging_run(self, tmp_path):
        assert self._run(FAILING_RUN, tmp_path) == 1
        text = (tmp_path / "FAILED.txt").read_text()
        assert text.startswith("student dissipative_qp, seed 0, continuous labels: loss is not finite")

    def test_failure_marker_names_the_phase(self, tmp_path):
        """An error outside training, here a map path that cannot be
        opened for writing, names the phase it stopped in."""
        (tmp_path / "map_teacher_0.csv").mkdir()
        assert self._run(SMALL_RUN, tmp_path) == 1
        text = (tmp_path / "FAILED.txt").read_text()
        assert text.startswith("writing artifacts: ") and "map_teacher_0.csv" in text
        assert not (tmp_path / "summary.json").exists()

    def test_successful_rerun_removes_failure_marker(self, tmp_path):
        assert self._run(FAILING_RUN, tmp_path) == 1
        assert (tmp_path / "FAILED.txt").is_file()
        assert self._run(SMALL_RUN, tmp_path) == 0
        assert not (tmp_path / "FAILED.txt").exists()
        assert (tmp_path / "summary.json").is_file()


class TestEncodingPcaRun:
    def test_artifacts(self, tmp_path):
        config = parse_config("experiment = encoding_pca\nn_points = 60\nseed = 2\n")
        config.out = str(tmp_path)
        assert run(config) == 0
        assert (tmp_path / "projection_rx.csv").is_file()
        assert (tmp_path / "projection_rot_h.csv").is_file()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "separability" in summary and "rx" in summary["separability"]
        header = (tmp_path / "projection_rx.csv").read_text().splitlines()[0]
        assert header == "x1,x2,projection_1,projection_2,label"


class TestLabellingRun:
    def test_artifacts(self, tmp_path):
        config = parse_config(
            "experiment = labelling\nn_points = 40\nepochs = 3\nmap_resolution = 5\n"
        )
        config.out = str(tmp_path)
        assert run(config) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [c["name"] for c in summary["cases"]] == ["inner_minus", "flipped", "flipped_with_x"]
        for case in summary["cases"]:
            assert (tmp_path / f"map_{case['name']}.csv").is_file()
            assert (tmp_path / f"loss_{case['name']}.csv").is_file()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that makes the loss non-finite
    def test_divergence_names_the_case(self, tmp_path):
        message = diverged_run(tmp_path, "experiment = labelling\nn_points = 40\nepochs = 3\nmap_resolution = 9\n")
        assert message.startswith("labelling case inner_minus: loss is not finite at epoch ")


class TestNormalizationRun:
    def test_artifacts(self, tmp_path):
        config = parse_config(
            "experiment = normalization\nn_seeds = 1\nresolution = 4\nmap_resolution = 5\nepochs = 2\n"
        )
        config.out = str(tmp_path)
        assert run(config) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "gap_ratio" in summary
        assert (tmp_path / "map_pi_teacher_0.csv").is_file()
        assert (tmp_path / "map_unit_teacher_0.csv").is_file()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that makes the loss non-finite
    def test_divergence_names_the_range(self, tmp_path):
        message = diverged_run(
            tmp_path, "experiment = normalization\nn_seeds = 1\nresolution = 4\nepochs = 2\nmap_resolution = 9\n")
        assert message.startswith("inputs on [-pi, pi]: student dissipative_qp, seed 0, continuous labels: ")


def diverged_run(tmp_path, config_text):
    """Run ``config_text`` with a learning rate that makes training diverge
    through ``main``; return the one line of its FAILED.txt."""
    config_path = tmp_path / "diverges.cfg"
    config_path.write_text(config_text + "learning_rate = 1e308\n")
    out = tmp_path / "out"
    assert main(["--config", str(config_path), "--out", str(out)]) == 1
    assert not (out / "summary.json").exists()
    message = (out / "FAILED.txt").read_text()
    assert message.endswith("\n") and message.count("\n") == 1
    return message.rstrip("\n")


class TestMain:
    def test_full_invocation(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_RUN)
        out = tmp_path / "results"
        status = main(["--config", str(config_path), "--out", str(out), "--seeds", "1"])
        assert status == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_seeds"] == 1

    def test_threads_option_is_ignored(self, artifacts, tmp_path):
        """--threads is accepted and changes no artifact; ``run`` still takes
        the second positional argument that perfbench/child.py passes."""
        _, reference = artifacts
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_RUN)
        outs = [tmp_path / "t1", tmp_path / "t2"]
        for threads, out in zip(("1", "2"), outs):
            assert main(["--config", str(config_path), "--out", str(out), "--threads", threads]) == 0
        config = parse_config(SMALL_RUN)
        config.out = str(tmp_path / "positional")
        assert run(config, 2) == 0
        outs.append(tmp_path / "positional")
        names = sorted(p.name for p in reference.iterdir() if p.name != "config.txt")
        for out in outs:
            assert sorted(p.name for p in out.iterdir() if p.name != "config.txt") == names
            for name in names:
                assert (out / name).read_bytes() == (reference / name).read_bytes(), (out.name, name)

    def test_missing_config_file(self, tmp_path, capsys):
        status = main(["--config", str(tmp_path / "nope.cfg")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = teleportation\n")
        assert main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("line", [
        "radius = inf", "radius = nan", "learning_rate = inf", "learning_rate = nan",
    ])
    def test_non_finite_value_fails_without_writing(self, tmp_path, capsys, line):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"experiment = labelling\nn_points = 20\nepochs = 2\n{line}\n")
        out = tmp_path / "results"
        assert main(["--config", str(config_path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [["--seeds", "0"], ["--seeds", "-2"], ["--threads", "0"]])
    def test_bad_override_fails_without_writing(self, tmp_path, capsys, override):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(config_path), "--out", str(out), *override]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
