"""Config parsing, artifact layout, and determinism of the CLI runner."""

import json
import subprocess
import sys

import pytest

from conftest import fresh_env
from qteach import cli
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

    @pytest.mark.parametrize("students, encoding", [
        ("dissipative_qp, dissipative_qp", "rx"),
        ("dissipative_qp, dissipative_qp@rx", "rx"),
        ("reuploading:2, qnn_two_qp, reuploading: 2", "rx"),
        ("dissipative_qp@rot_h, dissipative_qp", "rot_h"),
    ])
    def test_repeated_student_rejected(self, students, encoding):
        text = f"experiment = teacher_student\nteacher = reuploading:2\nstudents = {students}\nencoding = {encoding}\n"
        with pytest.raises(ConfigParseError, match="is listed twice"):
            parse_config(text)

    def test_one_family_under_two_encodings_accepted(self):
        config = parse_config("experiment = teacher_student\nteacher = reuploading:2\n"
                              "students = dissipative_qp, dissipative_qp@rot_h\n")
        assert config.students == ("dissipative_qp", "dissipative_qp@rot_h")

    @pytest.mark.parametrize("experiment", ["teacher_student", "encoding_pca", "labelling", "normalization"])
    def test_seed_must_be_below_2_32(self, experiment):
        text = MINIMAL.replace("teacher_student", experiment)
        assert parse_config(text + "seed = 4294967295\n").seed == 2**32 - 1
        with pytest.raises(ConfigParseError, match="seed must be below 2\\^32, got 4294967296"):
            parse_config(text + "seed = 4294967296\n")

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

    def test_failure_marker_names_the_phase_out_of_memory(self, tmp_path, monkeypatch, capsys):
        """Running out of memory (a grid or map too large to allocate) is a
        failure like any other: FAILED.txt names the phase, exit status 1."""
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "run_experiment", out_of_memory)
        assert self._run(SMALL_RUN, tmp_path) == 1
        message = "running the teacher_student experiment: Unable to allocate 298. GiB"
        assert (tmp_path / "FAILED.txt").read_text() == message + "\n"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["FAILED.txt", "config.txt"]

    def test_seed_of_2_32_leaves_the_previous_run(self, tmp_path, capsys):
        """A config seed of 2^32 or more would alias a smaller one, so it is
        a config error, found before the previous run's results are touched."""
        out = tmp_path / "out"
        assert self._run(SMALL_RUN, out) == 0
        config_path = tmp_path / "big_seed.cfg"
        config_path.write_text(SMALL_RUN.replace("seed = 9", "seed = 4294967296"))
        assert main(["--config", str(config_path), "--out", str(out)]) == 2
        assert "error: seed must be below 2^32, got 4294967296" in capsys.readouterr().err
        assert (out / "summary.json").is_file()
        assert not (out / "FAILED.txt").exists()

    def test_repeated_student_leaves_the_previous_run(self, tmp_path, capsys):
        """Two students that parse to one architecture would write the same
        files, the second run's over the first's, so the config is rejected
        before the previous run's results are touched."""
        out = tmp_path / "out"
        assert self._run(SMALL_RUN, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        config_path = tmp_path / "repeated.cfg"
        config_path.write_text(SMALL_RUN.replace("students = dissipative_qp",
                                                 "students = dissipative_qp, dissipative_qp@rx"))
        assert main(["--config", str(config_path), "--out", str(out)]) == 2
        assert ("error: student 'dissipative_qp' is listed twice (as 'dissipative_qp' and 'dissipative_qp@rx')"
                in capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert "summary.json" in before

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

    def test_divergence_names_the_range(self, tmp_path):
        message = diverged_run(
            tmp_path, "experiment = normalization\nn_seeds = 1\nresolution = 4\nepochs = 2\nmap_resolution = 9\n")
        assert message.startswith("inputs on [-pi, pi]: student dissipative_qp, seed 0, continuous labels: ")


DIVERGING_RUNS = {
    "teacher_student": SMALL_RUN,
    "labelling": "experiment = labelling\nn_points = 40\nepochs = 3\nmap_resolution = 9\n",
    "normalization": "experiment = normalization\nn_seeds = 1\nresolution = 4\nepochs = 2\nmap_resolution = 9\n",
}


@pytest.mark.parametrize("kind", list(DIVERGING_RUNS))
def test_diverging_run_prints_one_error_line(tmp_path, kind):
    """The overflow of a diverging training prints no numpy warnings: a
    CLI process writes its ``error:`` line and nothing else to stderr."""
    config_path = tmp_path / "diverges.cfg"
    config_path.write_text(DIVERGING_RUNS[kind] + "learning_rate = 1e308\n")
    done = subprocess.run([sys.executable, "-m", "qteach.cli", "--config", str(config_path),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=fresh_env(),
                          timeout=120)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


def test_labelling_with_an_empty_class_fails_before_training(tmp_path):
    """Four points all outside a tiny circle leave the -1 class empty: the
    process exits 1 with one ``error:`` line and no numpy warning, and
    writes only its config and FAILED.txt."""
    config_path = tmp_path / "empty.cfg"
    config_path.write_text("experiment = labelling\nn_points = 4\nradius = 0.01\nepochs = 2\nmap_resolution = 9\n")
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "qteach.cli", "--config", str(config_path), "--out", str(out)],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: running the labelling experiment: "), done.stderr
    assert "inside the circle of radius 0.01 (class -1)" in lines[0]
    assert sorted(p.name for p in out.iterdir()) == ["FAILED.txt", "config.txt"]


BLAS_RUNS = {
    "encoding_pca": "experiment = encoding_pca\nn_points = 60\nseed = 2\n",
    "labelling": "experiment = labelling\nn_points = 40\nepochs = 3\nmap_resolution = 9\n",
}


@pytest.mark.parametrize("kind", list(BLAS_RUNS))
def test_blas_threads_change_no_result(tmp_path, kind):
    """``encoding_pca`` is the one qteach path that calls BLAS (``@`` and
    ``eigh``): runs under a one- and a two-thread OpenBLAS write the same
    bytes, ``config.txt`` (which names the output directory) excepted."""
    config_path = tmp_path / "run.cfg"
    config_path.write_text(BLAS_RUNS[kind])

    def written(threads: str) -> dict:
        out = tmp_path / f"out_{threads}"
        subprocess.run([sys.executable, "-m", "qteach.cli", "--config", str(config_path), "--out", str(out)],
                       check=True, capture_output=True, env=fresh_env(OPENBLAS_NUM_THREADS=threads), timeout=120)
        return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "config.txt"}

    one = written("1")
    assert "summary.json" in one
    assert written("2") == one


def test_blas_threads_change_no_pca():
    """At 200,000 rows OpenBLAS splits ``pca_2d``'s products over its
    threads (the small CLI runs above stay below its threshold), and the
    projection and separability are still bit-identical."""
    probe = ("import hashlib, numpy as np; from qteach.analysis import pca_2d, separability_score; "
             "m = np.random.default_rng(0).random((200_000, 4)); p = pca_2d(m); "
             "s = separability_score(p, np.where(m[:, 0] > 0.5, 1.0, -1.0)); "
             "print(hashlib.sha256(p.components.tobytes() + p.projected.tobytes()"
             " + p.explained_variance.tobytes()).hexdigest(), repr(s))")
    prints = [subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                             env=fresh_env(OPENBLAS_NUM_THREADS=threads), timeout=120).stdout
              for threads in ("1", "2")]
    assert prints[0] == prints[1]


def test_cli_import_leaves_analysis_unloaded():
    """Only the encoding_pca, labelling and normalization runners use
    ``qteach.analysis``, and they import it when they run: a fresh
    ``import qteach.cli`` does not load it."""
    probe = "import sys, qteach.cli; print('qteach.analysis' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env=fresh_env(), timeout=120)
    assert done.stdout.strip() == "False"


def test_teacher_student_run_leaves_numpy_random_unloaded(tmp_path):
    """Seeds, initial draws and circular datasets come from
    ``qteach.seeding``: a fresh interpreter that runs a teacher_student,
    encoding_pca or labelling config loads neither ``numpy.random`` nor
    the ``secrets`` and ``hashlib`` it imports."""
    configs = {"teacher_student": SMALL_RUN,
               "encoding_pca": "experiment = encoding_pca\nn_points = 60\nseed = 2\n",
               "labelling": "experiment = labelling\nn_points = 40\nepochs = 3\nmap_resolution = 9\n"}
    for name, config in configs.items():
        config_path = tmp_path / f"{name}.cfg"
        config_path.write_text(config)
        out = tmp_path / name
        probe = ("import sys, qteach.cli; "
                 f"status = qteach.cli.main(['--config', {str(config_path)!r}, '--out', {str(out)!r}]); "
                 "print(status, sorted(m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                              env=fresh_env(), timeout=120)
        assert done.stdout.strip() == "0 []", name
        assert (out / "summary.json").exists(), name


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

    @pytest.mark.parametrize("experiment", ["teacher_student", "encoding_pca", "labelling", "normalization"])
    def test_negative_seed_fails_without_writing(self, tmp_path, capsys, experiment):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(MINIMAL.replace("teacher_student", experiment) + "seed = -1\n")
        out = tmp_path / "results"
        assert main(["--config", str(config_path), "--out", str(out)]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [["--seeds", "0"], ["--seeds", "-2"], ["--threads", "0"]])
    def test_bad_override_fails_without_writing(self, tmp_path, capsys, override):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(config_path), "--out", str(out), *override]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
