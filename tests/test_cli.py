import argparse
import hashlib
import json
import math
import re
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from snrsub import cli
from snrsub.cli import InputDescriptor, main, read_input, write_raw_f64le, write_wav16
from snrsub.core import empirical_quantile
from snrsub.harness import dump_json
from snrsub.smoother import select_bandwidth
from snrsub.subsample import cut_block

from conftest import traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    """The cells of a CSV text, one list per line, header first."""
    assert text.endswith("\n")
    return [line.split(",") for line in text.splitlines()]


def cell(value):
    """The table cell of a value: a float as its repr, None (JSON null) empty."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


# the columns of an mc cell table; the header names true_snr_db "snr_db"
MC_COLUMNS = ("design", "true_snr_db", "b", "metric", "level", "mean", "se", "replicas",
              "failures")


def assert_mc_csv_is_the_cells(csv_text, reports):
    """The mc --csv table holds every cell of ``reports``, reports in name order."""
    rows = csv_rows(csv_text)
    assert rows[0] == ["design", "snr_db", *MC_COLUMNS[2:]]
    assert rows[1:] == [[cell(c[col]) for col in MC_COLUMNS]
                        for name in sorted(reports) for c in reports[name]["cells"]]


def make_raw(tmp_path, samples, name="data.raw"):
    path = tmp_path / name
    write_raw_f64le(str(path), np.asarray(samples, dtype=np.float64))
    return str(path)


def simulate_ar(tmp_path, capsys, duration="0.25", seed="3", name="ar.raw"):
    out = str(tmp_path / name)
    code, stdout, _ = run_cli(
        capsys, "simulate", "--design", "ar", "--snr", "10", "--duration", duration,
        "--seed", seed, "--out", out,
    )
    assert code == 0
    return out, json.loads(stdout)


class TestReadInput:
    def test_wav16_scale_convention(self, tmp_path):
        path = tmp_path / "t.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(struct.pack("<4h", -32768, 0, 16384, 32767))
        ts = read_input(InputDescriptor(str(path), "wav16"))
        assert ts.sample_rate_hz == 8000.0
        np.testing.assert_allclose(ts.samples, [-1.0, 0.0, 0.5, 32767 / 32768])

    def test_wav16_channel_selection(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(struct.pack("<6h", 100, -100, 200, -200, 300, -300))
        left = read_input(InputDescriptor(str(path), "wav16", channel=0))
        right = read_input(InputDescriptor(str(path), "wav16", channel=1))
        np.testing.assert_allclose(left.samples * 32768, [100, 200, 300])
        np.testing.assert_allclose(right.samples * 32768, [-100, -200, -300])
        with pytest.raises(ValueError, match="has 2 channel\\(s\\), no channel 2"):
            read_input(InputDescriptor(str(path), "wav16", channel=2))

    @pytest.mark.parametrize("fmt", ["csv", "raw_f64le"])
    def test_single_channel_formats_have_channel_zero_only(self, tmp_path, fmt):
        path = tmp_path / "x"
        if fmt == "csv":
            path.write_text("1.5\n2.5\n")
        else:
            np.array([1.5, 2.5]).tofile(path)
        assert read_input(InputDescriptor(str(path), fmt, 8000.0)).samples.tolist() == [1.5, 2.5]
        for channel in (1, -1):
            with pytest.raises(ValueError, match=f"has 1 channel\\(s\\), no channel {channel}"):
                read_input(InputDescriptor(str(path), fmt, 8000.0, channel))

    def test_wav_rejects_non_16bit(self, tmp_path):
        path = tmp_path / "b.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(b"\x00\x01\x02")
        with pytest.raises(ValueError, match="16-bit"):
            read_input(InputDescriptor(str(path), "wav16"))

    def test_wav_malformed_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(ValueError, match="malformed"):
            read_input(InputDescriptor(str(path), "wav16"))

    def test_csv_last_column_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,v\n0,1.5\n1,2.5\n")
        ts = read_input(InputDescriptor(str(path), "csv", sample_rate_hz=2.0))
        np.testing.assert_allclose(ts.samples, [1.5, 2.5])
        assert ts.sample_rate_hz == 2.0

    def test_csv_headerless(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.5\n1,2.5\n")
        ts = read_input(InputDescriptor(str(path), "csv", sample_rate_hz=2.0))
        np.testing.assert_allclose(ts.samples, [1.5, 2.5])

    def test_csv_bad_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1.5\n1,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            read_input(InputDescriptor(str(path), "csv", sample_rate_hz=2.0))

    def test_csv_requires_fs(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ValueError, match="sample rate"):
            read_input(InputDescriptor(str(path), "csv"))

    def test_raw_roundtrip_bit_identical(self, tmp_path, rng):
        # three whole check chunks and a partial one, ending in special values
        special = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-300]
        samples = np.concatenate([rng.normal(size=3 * 65536 + 7), special])
        path = make_raw(tmp_path, samples)
        ts = read_input(InputDescriptor(path, "raw_f64le", sample_rate_hz=100.0))
        assert ts.samples.tobytes() == np.fromfile(path, dtype="<f8").tobytes()
        assert ts.samples.tobytes() == samples.tobytes()

    def test_raw_empty(self, tmp_path):
        path = tmp_path / "e.raw"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="zero samples"):
            read_input(InputDescriptor(str(path), "raw_f64le", sample_rate_hz=1.0))


def wav16_one_shot(path, samples, fs_hz):
    """The whole-series form of ``write_wav16``: the reference for its bytes."""
    limit = 32767.0 / 32768.0
    peak = float(np.max(np.abs(samples))) if samples.size else 0.0
    gain = 1.0 if peak <= limit else limit / peak
    ints = np.clip(np.rint(samples * gain * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(round(fs_hz)))
        wf.writeframes(ints.tobytes())
    return gain


class TestWriteWav16:
    @pytest.mark.parametrize("n,scale", [(1, 0.5), (1000, 3.0), (3 * (1 << 16) + 7, 0.2),
                                         (3 * (1 << 16) + 7, 40.0), ((1 << 16), 1.0)])
    def test_bytes_equal_the_one_shot_expression(self, tmp_path, n, scale):
        samples = np.random.default_rng(n).standard_normal(n) * scale
        samples[n // 2] = -scale * 9.0  # the peak, negative, in a middle chunk
        want = wav16_one_shot(str(tmp_path / "a.wav"), samples, 44100.0)
        got = write_wav16(str(tmp_path / "b.wav"), samples, 44100.0)
        assert got == want
        assert (tmp_path / "b.wav").read_bytes() == (tmp_path / "a.wav").read_bytes()

    def test_working_memory_is_bounded(self, tmp_path):
        samples = np.random.default_rng(1).standard_normal(1 << 20) * 4.0  # 8 MB, gain < 1
        gain, peak = traced_peak(write_wav16, str(tmp_path / "w.wav"), samples, 44100.0)
        assert gain < 1.0
        assert peak < 0.15 * samples.nbytes


class TestSimulate:
    def test_sine_only_manifest_power(self, tmp_path, capsys):
        out = str(tmp_path / "s.raw")
        code, stdout, _ = run_cli(
            capsys, "simulate", "--design", "sine-only", "--amplitude", "1",
            "--duration", "0.1", "--out", out,
        )
        assert code == 0
        manifest = json.loads(stdout)
        assert manifest["derived"]["signal_power"] == 0.5
        assert manifest["derived"]["n"] == 4410
        assert manifest["schema_version"] == 1
        on_disk = json.loads((tmp_path / "s.raw.manifest.json").read_text())
        assert on_disk == manifest

    def test_paper_scale_n(self, tmp_path, capsys):
        out = str(tmp_path / "big.raw")
        code, stdout, _ = run_cli(
            capsys, "simulate", "--design", "ar", "--snr", "10",
            "--duration", "30", "--out", out,
        )
        assert code == 0
        assert json.loads(stdout)["derived"]["n"] == 1_323_000

    def test_same_seed_identical_checksums(self, tmp_path, capsys):
        a, _ = simulate_ar(tmp_path, capsys, name="a.raw")
        b, _ = simulate_ar(tmp_path, capsys, name="b.raw")
        ha = hashlib.sha256(open(a, "rb").read()).hexdigest()
        hb = hashlib.sha256(open(b, "rb").read()).hexdigest()
        assert ha == hb

    def test_wav_output_readable(self, tmp_path, capsys):
        out = str(tmp_path / "w.wav")
        code, stdout, _ = run_cli(
            capsys, "simulate", "--design", "p1", "--snr", "6", "--duration", "0.1",
            "--format", "wav16", "--out", out,
        )
        assert code == 0
        manifest = json.loads(stdout)
        assert 0 < manifest["derived"]["wav_gain"] <= 1.0
        ts = read_input(InputDescriptor(out, "wav16"))
        assert ts.n == 4410

    def test_noise_only(self, tmp_path, capsys):
        out = str(tmp_path / "n.raw")
        code, stdout, _ = run_cli(
            capsys, "simulate", "--design", "noise-only", "--noise", "p2",
            "--duration", "0.1", "--out", out,
        )
        assert code == 0
        manifest = json.loads(stdout)
        assert manifest["derived"]["noise"]["beta"] == 0.6
        assert manifest["derived"]["true_snr_db"] is None

    @pytest.mark.parametrize("design,noise", [
        ("ar", {"kind": "ar1", "phi": -0.7, "variance": 1.5}),
        ("p1", {"kind": "powerlaw", "beta": 0.2, "variance": 1.5}),
        ("p2", {"kind": "powerlaw", "beta": 0.6, "variance": 1.5}),
    ])
    def test_manifest_noise_of_each_design(self, tmp_path, capsys, design, noise):
        for argv in (["--design", design], ["--design", "noise-only", "--noise", design]):
            code, stdout, _ = run_cli(
                capsys, "simulate", *argv, "--noise-variance", "1.5", "--duration", "0.05",
                "--out", str(tmp_path / "x.raw"),
            )
            assert code == 0
            assert json.loads(stdout)["derived"]["noise"] == noise

    def test_manifest_noise_white(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "--design", "noise-only", "--duration", "0.05",
            "--out", str(tmp_path / "x.raw"),
        )
        assert code == 0
        assert json.loads(stdout)["derived"]["noise"] == {"kind": "white", "variance": 1.0}

    @pytest.mark.parametrize("noise", ["p1", "p2"])
    def test_zero_variance_powerlaw_noise_is_invalid(self, tmp_path, capsys, noise):
        code, _, err = run_cli(
            capsys, "simulate", "--design", "noise-only", "--noise", noise,
            "--noise-variance", "0", "--duration", "0.05", "--out", str(tmp_path / "x.raw"),
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "invalid-config"

    def test_nyquist_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--design", "ar", "--fs", "80", "--duration", "1",
            "--out", str(tmp_path / "x.raw"),
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "nyquist"


class TestEstimate:
    def test_block_ms_conversion(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        for ms, b in (("10", 441), ("15", 662)):
            code, stdout, _ = run_cli(
                capsys, "estimate", "--input", path, "--fs", "44100",
                "--block-ms", ms, "--k", "32", "--seed", "1",
            )
            assert code == 0
            report = json.loads(stdout)
            assert report["config"]["b"] == b
        assert report["config"]["b1"] == 13
        assert report["results"]["retained"] == 32
        q = report["results"]["quantiles_db"]
        assert set(q) == {"0.1", "0.25", "0.5", "0.75", "0.9"}
        ci = report["results"]["ci_db"]
        assert set(ci) == {"0.9", "0.95"}
        lo, hi = ci["0.9"]
        assert lo <= q["0.5"] <= hi

    def test_quantile_keys_name_their_level_exactly(self, tmp_path, capsys):
        # six significant digits would give each pair one key, and drop a level
        path, _ = simulate_ar(tmp_path, capsys)
        code, stdout, _ = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100", "--block-samples", "441",
            "--k", "16", "--levels", "0.1234561,0.1234562", "--ci", "0.9,0.9000001",
        )
        assert code == 0
        results = json.loads(stdout)["results"]
        assert list(results["quantiles_db"]) == ["0.1234561", "0.1234562"]
        assert list(results["ci_db"]) == ["0.9", "0.9000001"]

    def test_wav_of_unknown_size_is_read_whole(self, tmp_path, capsys, recordings):
        # a writer that cannot seek leaves the RIFF and data sizes at 0xFFFFFFFF
        wav = bytearray(Path(recordings["wav"]).read_bytes())
        at = wav.index(b"data") + 4
        wav[4:8] = wav[at:at + 4] = b"\xff" * 4
        path = tmp_path / "stream.wav"
        path.write_bytes(wav)
        code, stdout, _ = run_cli(capsys, "estimate", "--input", str(path),
                                  "--block-samples", "441", "--k", "16")
        assert code == 0
        assert json.loads(stdout)["config"]["n"] == 11025

    def test_block_seconds(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        code, stdout, _ = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-s", "0.01", "--k", "16",
        )
        assert code == 0
        assert json.loads(stdout)["config"]["b"] == 441

    def test_byte_identical_across_threads_and_runs(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        outs = []
        for threads in ("1", "1", "2"):
            code, stdout, _ = run_cli(
                capsys, "estimate", "--input", path, "--fs", "44100",
                "--block-ms", "10", "--k", "24", "--seed", "9", "--threads", threads,
            )
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1] == outs[2]

    def test_env_threads_default(self, tmp_path, capsys, monkeypatch):
        path, _ = simulate_ar(tmp_path, capsys)
        args = ("estimate", "--input", path, "--fs", "44100",
                "--block-ms", "10", "--k", "16", "--seed", "2")
        code, base, _ = run_cli(capsys, *args)
        assert code == 0
        monkeypatch.setenv("SNRSUB_THREADS", "2")
        code, with_env, _ = run_cli(capsys, *args)
        assert code == 0
        assert base == with_env

    @pytest.mark.parametrize("flag,env", [("0", None), ("-3", None), (None, "0")])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, flag, env):
        path, _ = simulate_ar(tmp_path, capsys)
        args = ["estimate", "--input", path, "--fs", "44100", "--block-ms", "10", "--k", "16"]
        if flag is not None:
            args += ["--threads", flag]
        else:
            monkeypatch.setenv("SNRSUB_THREADS", env)
        code, stdout, err = run_cli(capsys, *args)
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-config"
        assert "must be at least 1" in error["message"]

    def test_timings_flag_adds_section(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        code, stdout, _ = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--k", "16", "--timings",
        )
        assert code == 0
        assert "timings" in json.loads(stdout)

    def test_timings_leave_the_default_report_as_it_was(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        args = ("estimate", "--input", path, "--fs", "44100", "--block-ms", "10", "--k", "16")
        code, default, _ = run_cli(capsys, *args)
        assert code == 0
        code, timed, _ = run_cli(capsys, *args, "--timings")
        assert code == 0
        report = json.loads(timed)
        timings = report.pop("timings")
        assert set(timings) == {"read_s", "estimate_s", "threads"}
        assert timings["read_s"] >= 0.0 and timings["estimate_s"] >= 0.0
        assert dump_json(report) == default

    def test_snr_csv_written(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        csv_path = str(tmp_path / "vals.csv")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--k", "16", "--snr-csv", csv_path,
        )
        assert code == 0
        results = json.loads(stdout)["results"]
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "snr_db"
        vals = [float(v) for v in lines[1:]]
        assert lines[1:] == [repr(v) for v in vals]
        assert vals == sorted(vals) and len(vals) == results["retained"] == 16
        # the JSON quantiles are order statistics of the table
        quantiles = results["quantiles_db"]
        assert {g: empirical_quantile(vals, float(g)) for g in quantiles} == quantiles

    def test_conflicting_block_flags(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        code, _, err = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--block-samples", "441",
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "config-conflict"

    def test_k_too_large(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys, duration="0.02")
        code, _, err = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--k", "100000",
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "k-too-large"

    def test_excessive_skips(self, tmp_path, capsys):
        path = make_raw(tmp_path, np.zeros(4000), "flat.raw")
        code, _, err = run_cli(
            capsys, "estimate", "--input", path, "--fs", "1000",
            "--block-samples", "441", "--k", "8",
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "excessive-skips"

    def test_truncated_raw_is_bad_input(self, tmp_path, capsys, rng):
        path = make_raw(tmp_path, rng.normal(size=22050))
        with open(path, "r+b") as f:
            f.truncate(22050 * 8 - 3)
        code, stdout, err = run_cli(
            capsys, "estimate", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--k", "16",
        )
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["code"] == "bad-input"
        assert "176397 bytes" in error["message"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_raw_recording_is_not_held_in_memory(self, tmp_path):
        # The child reads its own high-water mark (a parent's rusage would include the
        # parent's). A first estimate on a short file loads the code paths, whose pages
        # count too, so that the growth measured is what the long recording costs.
        rng = np.random.default_rng(11)
        short, long = tmp_path / "short.raw", tmp_path / "long.raw"
        rng.normal(size=100_000).tofile(short)
        with open(long, "wb") as f:
            for _ in range(8):  # 4 M samples, 32 MB, written 4 MB at a time
                rng.normal(size=500_000).astype("<f8").tofile(f)
        code = (
            "import sys\n"
            "import snrsub.cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:')) * 1024\n"
            "def estimate(path):\n"
            "    return snrsub.cli.main(['estimate', '--input', path, '--fs', '44100',\n"
            "        '--block-samples', '662', '--k', '200', '--out', path + '.json'])\n"
            "assert estimate(sys.argv[1]) == 0\n"
            "before = hwm()\n"
            "assert estimate(sys.argv[2]) == 0\n"
            "print(hwm() - before)\n"
        )
        run = subprocess.run([sys.executable, "-c", code, str(short), str(long)],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < long.stat().st_size / 4

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--input", "/nonexistent.raw", "--fs", "100",
            "--block-samples", "32",
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "io-error"


class TestSelectBlock:
    def test_default_grid(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys, duration="0.4")
        code, stdout, _ = run_cli(
            capsys, "select-block", "--input", path, "--fs", "44100",
            "--grid-steps", "6", "--k", "32", "--seed", "4",
            "--table-csv", str(tmp_path / "vol.csv"),
        )
        assert code == 0
        report = json.loads(stdout)
        chosen = report["results"]["chosen_b_samples"]
        table = report["results"]["table"]
        assert chosen in [row["b"] for row in table][1:-1]
        assert 2.0 <= report["results"]["chosen_b_ms"] <= 20.0
        rows = csv_rows(open(tmp_path / "vol.csv").read())
        header = ["b", "b_ms", "q_low", "q_high", "volatility"]
        assert rows == [header] + [[cell(row[col]) for col in header] for row in table]
        assert table[0]["volatility"] is None and rows[1][-1] == ""  # the endpoints have none

    def test_eeg_style_grid_in_seconds(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        y = np.sin(2 * np.pi * 1.0 * np.arange(1, 256 * 40 + 1) / 256) + rng.normal(0, 0.5, 256 * 40)
        path = make_raw(tmp_path, y, "eeg.raw")
        code, stdout, _ = run_cli(
            capsys, "select-block", "--input", path, "--fs", "256",
            "--grid-min", "2", "--grid-max", "10", "--grid-unit", "s",
            "--grid-steps", "9", "--k", "24", "--seed", "1",
        )
        assert code == 0
        table = json.loads(stdout)["results"]["table"]
        bs = [row["b"] for row in table]
        assert min(bs) == 512 and max(bs) == 2560

    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_end_named_before_linspace(self, tmp_path, capsys):
        # np.linspace used to warn and turn every candidate to NaN
        path, _ = simulate_ar(tmp_path, capsys)
        for flag, bad in (("--grid-max", "inf"), ("--grid-min", "nan")):
            code, stdout, err = run_cli(capsys, "select-block", "--input", path,
                                        "--fs", "44100", flag, bad)
            assert (code, stdout) == (1, "")
            assert json.loads(err)["error"] == {
                "code": "invalid-config", "message": f"{flag} must be finite, got {bad}"}

    def test_grid_takes_the_estimate_rounding_rule(self):
        # 0.5555555555555556 ms at 44.1 kHz is 24.5 samples as ms * fs / 1000,
        # rounded half to even, but 24.500000000000004 as ms * (fs / 1000)
        assert cli._block_samples("--grid-max", 0.5555555555555556, "ms", 44100.0) == 24
        assert cli._block_samples("--block-ms", 10.0, "ms", 44100.0) == 441

    def test_infeasible_grid(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys, duration="0.02")
        code, _, err = run_cli(
            capsys, "select-block", "--input", path, "--fs", "44100",
            "--grid-min", "500", "--grid-max", "900", "--k", "16",
        )
        assert code == 1
        assert json.loads(err)["error"]["code"] == "grid-infeasible"


class TestMc:
    def test_quick_report_cells(self, tmp_path, capsys):
        csv_path = str(tmp_path / "mc.csv")
        code, stdout, _ = run_cli(
            capsys, "mc", "--design", "ar", "--snr", "6", "--quick", "--seed", "2",
            "--csv", csv_path,
        )
        assert code == 0
        payload = json.loads(stdout)
        mse_cells = payload["reports"]["mse"]["cells"]
        assert sorted({c["b"] for c in mse_cells}) == [441, 662]
        qmae_cells = payload["reports"]["qmae"]["cells"]
        assert {c["metric"] for c in qmae_cells} == {"quantile_mae"}
        assert_mc_csv_is_the_cells(open(csv_path).read(), payload["reports"])

    @pytest.mark.parametrize("design", ["ar", "p2"])
    def test_both_equals_the_single_metric_reports(self, tmp_path, capsys, design):
        reports, csv = {}, {}
        for metric in ("both", "mse", "qmae"):
            path = str(tmp_path / f"{metric}.csv")
            code, stdout, _ = run_cli(
                capsys, "mc", "--design", design, "--snr", "6", "--metric", metric,
                "--replicas", "2", "--duration", "0.25", "--k", "24", "--b-ms", "10,15",
                "--oracle-replicas", "200", "--seed", "2", "--csv", path,
            )
            assert code == 0
            reports[metric] = json.loads(stdout)["reports"]
            csv[metric] = open(path).read().splitlines()
        assert reports["both"] == {"mse": reports["mse"]["mse"], "qmae": reports["qmae"]["qmae"]}
        assert csv["both"] == csv["mse"] + csv["qmae"][1:]

    @pytest.mark.parametrize("metric", ["qmae", "both"])
    def test_zero_oracle_draws_fail_before_the_replicas(self, capsys, monkeypatch, metric):
        def no_replicas(*args):
            raise AssertionError("replica pass started")
        monkeypatch.setattr("snrsub.harness._run_replicas", no_replicas)
        code, stdout, err = run_cli(
            capsys, "mc", "--design", "ar", "--snr", "6", "--metric", metric,
            "--replicas", "1", "--duration", "0.2", "--k", "24", "--b-ms", "10",
            "--oracle-replicas", "0",
        )
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-config"
        assert error["message"] == "oracle_replicas must be >= 1, got 0"

    @pytest.mark.parametrize("snr,amplitude", [("nan", "nan"), ("inf", "inf"), ("1e5", "inf"),
                                               ("-1e5", "0.0")])
    def test_non_finite_snr_fails_before_any_job(self, capsys, monkeypatch, snr, amplitude):
        # a NaN SNR used to fail inside the first oracle job, unnamed
        def no_jobs(*args):
            raise AssertionError("Monte Carlo jobs started")
        monkeypatch.setattr("snrsub.harness._run_replicas", no_jobs)
        code, stdout, err = run_cli(capsys, "mc", "--design", "ar", f"--snr={snr}",
                                    "--metric", "both", "--quick")
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-config"
        assert error["message"] == (f"SNR {float(snr)} dB gives no positive finite amplitude, "
                                    f"got {amplitude}" if math.isfinite(float(snr))
                                    else f"--snr must be finite, got {snr}")

    @pytest.mark.parametrize("design", ["ar", "p2"])
    def test_repeats_in_one_process_equal_two_threads(self, tmp_path, capsys, design):
        # each noise slab is a view of a buffer its generator reuses: nothing of
        # one run may leak into the next, or differ from a pool of two workers
        outputs = []
        for threads in ("1", "1", "2"):
            csv_path = tmp_path / f"mc.{len(outputs)}.csv"
            code, stdout, err = run_cli(capsys, "mc", "--design", design, "--snr", "6",
                                        "--quick", "--seed", "5", "--threads", threads,
                                        "--csv", str(csv_path))
            assert code == 0, err
            outputs.append((stdout, csv_path.read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_zero_oracle_draws_ignored_for_mse(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "mc", "--design", "ar", "--snr", "6", "--metric", "mse",
            "--replicas", "1", "--duration", "0.2", "--k", "24", "--b-ms", "10",
            "--oracle-replicas", "0",
        )
        assert code == 0
        assert list(json.loads(stdout)["reports"]) == ["mse"]

    def test_single_replica_se_absent(self, tmp_path, capsys):
        csv_path = tmp_path / "mc.csv"
        code, stdout, _ = run_cli(
            capsys, "mc", "--design", "ar", "--snr", "10", "--metric", "both",
            "--replicas", "1", "--duration", "0.2", "--k", "24", "--b-ms", "10",
            "--oracle-replicas", "200", "--csv", str(csv_path),
        )
        assert code == 0
        reports = json.loads(stdout)["reports"]
        assert {c["se"] for name in reports for c in reports[name]["cells"]} == {None}
        assert_mc_csv_is_the_cells(csv_path.read_text(), reports)

    def test_rate_below_nyquist_fails_before_any_oracle(self, capsys, monkeypatch):
        # at 80 Hz both oracles used to run before the first replica failed
        def no_oracle(*args):
            raise AssertionError("oracle draws started")
        monkeypatch.setattr("snrsub.harness.oracle_draws", no_oracle)
        code, stdout, err = run_cli(capsys, "mc", "--design", "ar", "--snr", "6", "--fs", "80",
                                    "--b-ms", "300,400", "--duration", "60", "--k", "20",
                                    "--replicas", "2")
        assert (code, stdout) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "nyquist", "message": "50 Hz signal violates Nyquist at rate 80.0 Hz"}


class TestBandwidthCmd:
    def test_cv_curve_csv(self, tmp_path, capsys):
        path, _ = simulate_ar(tmp_path, capsys)
        code, stdout, _ = run_cli(
            capsys, "bandwidth", "--input", path, "--fs", "44100",
            "--block-ms", "10", "--start", "500",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "h,cv,selected"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 25
        hs = [float(r[0]) for r in rows]
        cvs = [float(r[1]) for r in rows]
        sel = [int(r[2]) for r in rows]
        assert sum(sel) == 1
        chosen = sel.index(1)
        finite = [c for c in cvs if np.isfinite(c)]
        assert cvs[chosen] == min(finite)
        assert hs == sorted(hs)
        fit = select_bandwidth(cut_block(read_input(InputDescriptor(path, "raw_f64le", 44100.0)),
                                         500, 441))
        assert rows == [[cell(h), cell(cv), str(int(h == fit.h_hat))] for h, cv in fit.cv_curve]

    def test_selection_does_not_depend_on_amplitude(self, tmp_path, capsys):
        # 1e160 used to overflow the CV and exit invalid-config
        path, _ = simulate_ar(tmp_path, capsys)
        samples = read_input(InputDescriptor(path, "raw_f64le", 44100.0)).samples
        chosen = {}
        for scale in (1.0, 1e160, 1e-150):
            scaled = make_raw(tmp_path, samples * scale, name=f"x{scale:g}.raw")
            code, stdout, stderr = run_cli(
                capsys, "bandwidth", "--input", scaled, "--fs", "44100",
                "--block-ms", "10", "--start", "500",
            )
            assert code == 0, stderr
            rows = [ln.split(",") for ln in stdout.splitlines()[1:]]
            chosen[scale] = [r[0] for r in rows if r[2] == "1"]
        assert chosen[1e160] == chosen[1e-150] == chosen[1.0]
        assert len(chosen[1.0]) == 1


# Every failure path reaches ``main``'s error JSON: (argv, code, message).
# {raw} and {wav} are 0.25 s AR recordings (11025 samples), {flat} 4000 zeros,
# {nan} 3999 ones and a NaN, {empty} an empty file
# at 1 kHz, {empty_wav} an empty .wav file, {riff_wav} a .wav file holding
# only b"RIFF", {odd_wav} and {short_wav} {wav} cut 1001 and 1000 bytes short,
# {tmp} a scratch directory.
ERROR_TABLE = {
    "missing-input": (
        ["estimate", "--input", "{tmp}/missing.raw", "--fs", "44100", "--block-samples", "441"],
        "io-error", "[Errno 2] No such file or directory: '{tmp}/missing.raw'"),
    "b1-too-small": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441", "--b1", "3"],
        "invalid-config", "need 4 <= b1 < b, got b1=3, b=441"),
    "block-too-short": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "10"],
        "invalid-config", "block length must be >= 16 samples, got 10"),
    "k-zero": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441", "--k", "0"],
        "invalid-config", "k_blocks must be >= 1, got 0"),
    "mc-replicas-zero": (
        ["mc", "--design", "ar", "--snr", "6", "--replicas", "0"],
        "invalid-config", "replicas must be >= 1, got 0"),
    "bandwidth-block-too-short": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-samples", "8"],
        "invalid-config", "need at least 16 samples, got 8"),
    "bandwidth-start-past-end": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-samples", "441",
         "--start", "11000"],
        "invalid-config", "block [11000, 11440] outside series of length 11025"),
    "bandwidth-block-too-long": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-samples", "20000"],
        "invalid-config", "block [1, 20000] outside series of length 11025"),
    "bandwidth-block-negative": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-samples", "-5"],
        "invalid-config", "block [1, -5] outside series of length 11025"),
    "simulate-nyquist": (
        ["simulate", "--design", "ar", "--duration", "0.1", "--fs", "100", "--out", "{tmp}/x.raw"],
        "nyquist", "50 Hz signal violates Nyquist at rate 100.0 Hz"),
    "simulate-fractional-length": (
        ["simulate", "--design", "sine-only", "--duration", "0.00001", "--out", "{tmp}/x.raw"],
        "invalid-config", "duration*rate must be a positive integer, got 0.44100000000000006"),
    "simulate-negative-variance": (
        ["simulate", "--design", "ar", "--duration", "0.1", "--noise-variance", "-1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "noise variance must be positive, got -1.0"),
    "noise-only-too-short": (
        ["simulate", "--design", "noise-only", "--noise", "p2", "--fs", "1000",
         "--duration", "0.009", "--out", "{tmp}/x.raw"],
        "invalid-config", "n must be >= 16, got 9"),
    "noise-only-variance-nan": (
        ["simulate", "--design", "noise-only", "--noise-variance", "nan", "--duration", "0.1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--noise-variance must be finite, got nan"),
    "noise-only-variance-inf": (
        ["simulate", "--design", "noise-only", "--noise", "ar", "--noise-variance", "inf",
         "--duration", "0.1", "--out", "{tmp}/x.raw"],
        "invalid-config", "--noise-variance must be finite, got inf"),
    "noise-only-fractional-length": (
        ["simulate", "--design", "noise-only", "--duration", "0.100001", "--out", "{tmp}/x.raw"],
        "invalid-config", "duration*rate must be a positive integer, got 4410.0441"),
    "simulate-infinite-duration": (
        ["simulate", "--design", "ar", "--duration", "inf", "--out", "{tmp}/x.raw"],
        "invalid-config", "--duration must be finite, got inf"),
    "simulate-unwritable-out": (
        ["simulate", "--design", "ar", "--duration", "0.1", "--out", "{tmp}/nodir/x.raw"],
        "io-error",
        "cannot write {tmp}/nodir/x.raw: [Errno 2] No such file or directory: '{tmp}/nodir/x.raw'"),
    "estimate-unwritable-snr-csv": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441", "--k", "16",
         "--out", "{tmp}/r.json", "--snr-csv", "{tmp}/nodir/s.csv"],
        "io-error", "[Errno 2] No such file or directory: '{tmp}/nodir/s.csv'"),
    "simulate-fs-zero": (
        ["simulate", "--design", "ar", "--duration", "0.1", "--fs", "0", "--out", "{tmp}/x.raw"],
        "invalid-config", "--fs must be positive, got 0"),
    "noise-only-fs-nan": (
        ["simulate", "--design", "noise-only", "--duration", "0.1", "--fs", "nan",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--fs must be finite, got nan"),
    "estimate-wav-fs-zero": (
        ["estimate", "--input", "{wav}", "--fs", "0", "--block-samples", "441"],
        "invalid-config", "--fs must be positive, got 0"),
    "estimate-raw-fs-zero": (
        ["estimate", "--input", "{raw}", "--fs", "0", "--block-samples", "441"],
        "invalid-config", "--fs must be positive, got 0"),
    "mc-repeated-block": (
        ["mc", "--design", "ar", "--snr", "6", "--b-ms", "10,10", "--quick"],
        "invalid-config", "block lengths must be distinct, got (441, 441)"),
    "mc-block-too-short": (
        ["mc", "--design", "ar", "--snr", "6", "--b-ms", "0.3", "--quick"],
        "invalid-config", "block length must be >= 16 samples, got 13"),
    "mc-k-too-large": (
        ["mc", "--design", "ar", "--snr", "6", "--duration", "0.05", "--k", "5000", "--b-ms", "10",
         "--metric", "qmae"],
        "k-too-large", "k=5000 exceeds the 1765 admissible block starts"),
    "mc-nyquist": (
        ["mc", "--design", "ar", "--snr", "6", "--fs", "80", "--b-ms", "300,400",
         "--duration", "60", "--k", "20", "--replicas", "2"],
        "nyquist", "50 Hz signal violates Nyquist at rate 80.0 Hz"),
    "mc-block-too-long": (
        ["mc", "--design", "ar", "--snr", "6", "--duration", "0.01", "--b-ms", "15"],
        "invalid-config", "block length 662 exceeds series length 441"),
    "mc-fractional-length": (
        ["mc", "--design", "ar", "--snr", "6", "--duration", "0.10001", "--b-ms", "10",
         "--metric", "qmae"],
        "invalid-config", "duration*rate must be a positive integer, got 4410.441"),
    "estimate-k-too-large": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-ms", "10", "--k", "100000"],
        "k-too-large", "k=100000 exceeds the 10585 admissible block starts"),
    "estimate-block-too-long": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "20000"],
        "invalid-config", "block length 20000 exceeds series length 11025"),
    "estimate-block-flags-conflict": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-ms", "10",
         "--block-samples", "441"],
        "config-conflict",
        "exactly one of --block-samples/--block-ms/--block-s required, got "
        "['--block-samples', '--block-ms']"),
    "estimate-excessive-skips": (
        ["estimate", "--input", "{flat}", "--fs", "1000", "--block-samples", "441", "--k", "8"],
        "excessive-skips",
        "8 of 8 blocks skipped (budget 10%); quantiles would be biased by silent mass-skipping"),
    "estimate-empty-raw": (
        ["estimate", "--input", "{empty}", "--fs", "44100", "--block-samples", "441"],
        "bad-input", "raw: zero samples in {empty}"),
    "estimate-non-finite-raw": (
        ["estimate", "--input", "{nan}", "--fs", "44100", "--block-samples", "441"],
        "bad-input", "samples contain non-finite values"),
    "estimate-raw-channel": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441", "--k", "20",
         "--channel", "7"],
        "bad-input", "{raw} has 1 channel(s), no channel 7"),
    "estimate-wav-channel-past-the-last": (
        ["estimate", "--input", "{wav}", "--block-samples", "441", "--k", "20", "--channel", "3"],
        "bad-input", "{wav} has 1 channel(s), no channel 3"),
    "estimate-wav-channel-negative": (
        ["estimate", "--input", "{wav}", "--block-samples", "441", "--k", "20", "--channel", "-1"],
        "bad-input", "{wav} has 1 channel(s), no channel -1"),
    "estimate-partial-raw-sample": (
        ["estimate", "--input", "{wav}", "--format", "raw", "--fs", "44100",
         "--block-samples", "441"],
        "bad-input", "raw: 22094 bytes in {wav} is not a whole number of float64 samples"),
    "estimate-block-ms-inf": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-ms", "inf"],
        "invalid-config", "--block-ms must be finite, got inf"),
    "estimate-block-s-inf": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-s", "inf"],
        "invalid-config", "--block-s must be finite, got inf"),
    "estimate-block-ms-overflow": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-ms", "1e306"],
        "invalid-config", "--block-ms gives no finite block length: 1e+306"),
    "bandwidth-block-ms-inf": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-ms", "inf"],
        "invalid-config", "--block-ms must be finite, got inf"),
    "mc-b-ms-inf": (
        ["mc", "--design", "ar", "--snr", "6", "--b-ms", "10,inf", "--quick"],
        "invalid-config", "--b-ms gives no finite block length: inf"),
    "estimate-fs-inf": (
        ["estimate", "--input", "{raw}", "--fs", "inf", "--block-samples", "441"],
        "invalid-config", "--fs must be finite, got inf"),
    "select-block-fs-inf": (
        ["select-block", "--input", "{raw}", "--fs", "inf"],
        "invalid-config", "--fs must be finite, got inf"),
    "simulate-snr-nan": (
        ["simulate", "--design", "ar", "--snr", "nan", "--duration", "0.1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--snr must be finite, got nan"),
    "select-block-grid-infeasible": (
        ["select-block", "--input", "{raw}", "--fs", "44100", "--grid-min", "500",
         "--grid-max", "900", "--k", "16"],
        "grid-infeasible", "grid reduces to 0 feasible candidates; need at least 5"),
    # an int that argparse takes but no float holds (311 digits)
    "estimate-block-samples-beyond-float": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "1" * 311],
        "invalid-config",
        "--block-samples gives no finite block length: an integer beyond the float range"),
    "bandwidth-block-samples-beyond-float": (
        ["bandwidth", "--input", "{raw}", "--fs", "44100", "--block-samples", "9" * 400],
        "invalid-config",
        "--block-samples gives no finite block length: an integer beyond the float range"),
    "estimate-empty-wav": (
        ["estimate", "--input", "{empty_wav}", "--block-samples", "100"],
        "bad-input", "wav: malformed header in {empty_wav}: the file is empty or truncated"),
    "estimate-truncated-wav": (
        ["estimate", "--input", "{riff_wav}", "--block-samples", "100"],
        "bad-input", "wav: malformed header in {riff_wav}: the file is empty or truncated"),
    "estimate-levels-unparsable": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441",
         "--levels", "x"],
        "invalid-config", "--levels: cannot parse 'x'"),
    "estimate-levels-repeated": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441",
         "--levels", "0.5,0.5"],
        "invalid-config", "--levels: levels must be strictly increasing"),
    "estimate-ci-out-of-range": (
        ["estimate", "--input", "{raw}", "--fs", "44100", "--block-samples", "441",
         "--ci", "1.5"],
        "invalid-config", "--ci: levels must lie in (0, 1)"),
    "mc-levels-decreasing": (
        ["mc", "--design", "ar", "--snr", "6", "--levels", "0.9,0.1", "--quick"],
        "invalid-config", "--levels: levels must be strictly increasing"),
    "estimate-odd-byte-wav": (
        ["estimate", "--input", "{odd_wav}", "--block-samples", "100"],
        "bad-input", "wav: truncated data in {odd_wav}: the data ends inside a frame"),
    "estimate-short-wav": (
        ["estimate", "--input", "{short_wav}", "--block-samples", "100"],
        "bad-input",
        "wav: truncated data in {short_wav}: the header declares 11025 frames, the file holds 10525"),
    "simulate-amplitude-overflow": (
        ["simulate", "--design", "sine-only", "--amplitude", "1e200", "--duration", "0.1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--amplitude 1e+200 gives no finite signal power"),
    "simulate-amplitude-inf": (
        ["simulate", "--design", "ar", "--amplitude", "inf", "--duration", "0.1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--amplitude must be finite, got inf"),
    "simulate-amplitude-nan": (
        ["simulate", "--design", "sine-only", "--amplitude", "nan", "--duration", "0.1",
         "--out", "{tmp}/x.raw"],
        "invalid-config", "--amplitude must be finite, got nan"),
    "mc-b-ms-empty": (
        ["mc", "--design", "ar", "--snr", "6", "--b-ms", "", "--quick"],
        "invalid-config", "--b-ms: cannot parse ''"),
    "mc-b-ms-unparsable": (
        ["mc", "--design", "ar", "--snr", "6", "--b-ms", "10,x", "--quick"],
        "invalid-config", "--b-ms: cannot parse '10,x'"),
    "select-block-grid-steps-negative": (
        ["select-block", "--input", "{raw}", "--fs", "44100", "--grid-steps", "-1"],
        "invalid-config", "--grid-steps must be non-negative, got -1"),
    # a finite grid end can still overflow in samples (1e305 s at 44.1 kHz)
    "select-block-grid-overflow": (
        ["select-block", "--input", "{raw}", "--fs", "44100", "--grid-min", "1e305",
         "--grid-max", "2e305", "--grid-unit", "s"],
        "invalid-config", "--grid-min/--grid-max gives no finite block length: 1e+305"),
    # settings are checked before the input is read
    "estimate-levels-before-input": (
        ["estimate", "--input", "{tmp}/missing.raw", "--fs", "44100", "--block-samples", "441",
         "--levels", "2"],
        "invalid-config", "--levels: levels must lie in (0, 1)"),
    "select-block-grid-steps-before-input": (
        ["select-block", "--input", "{tmp}/missing.raw", "--fs", "44100", "--grid-steps", "-1"],
        "invalid-config", "--grid-steps must be non-negative, got -1"),
}


def float_flag_cases():
    """(argv, flag, value) for every float flag of every command, each value
    non-finite: argv holds the command's required flags, with every output
    in {tmp}; simulate is taken with each design."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    designs = next(a for a in commands["simulate"]._actions if a.dest == "design").choices
    bases = {f"simulate-{d}": ["simulate", "--design", d, "--duration", "0.01",
                               "--out", "{tmp}/x.raw"] for d in designs}
    for command in ("estimate", "select-block", "bandwidth"):
        bases[command] = [command, "--input", "{tmp}/missing.raw", "--out", "{tmp}/r.out"]
    bases["mc"] = ["mc", "--design", "ar", "--snr", "6", "--out", "{tmp}/r.json",
                   "--csv", "{tmp}/r.csv"]
    for name, argv in bases.items():
        for action in commands[argv[0]]._actions:
            if action.type is float:
                for value in ("nan", "inf", "-inf"):
                    flag = action.option_strings[0]
                    yield pytest.param(argv, flag, value, id=f"{name}{flag}={value}")


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("recordings")
    for fmt, name in (("raw", "ar.raw"), ("wav16", "ar.wav")):
        assert main(["simulate", "--design", "ar", "--duration", "0.25", "--seed", "3",
                     "--format", fmt, "--out", str(tmp / name)]) == 0
    write_raw_f64le(str(tmp / "flat.raw"), np.zeros(4000))
    write_raw_f64le(str(tmp / "nan.raw"), np.append(np.ones(3999), math.nan))
    (tmp / "empty.raw").write_bytes(b"")
    (tmp / "empty.wav").write_bytes(b"")
    (tmp / "riff.wav").write_bytes(b"RIFF")
    (tmp / "odd.wav").write_bytes((tmp / "ar.wav").read_bytes()[:-1001])  # ends inside a sample
    (tmp / "short.wav").write_bytes((tmp / "ar.wav").read_bytes()[:-1000])  # ends on a frame
    return {name: str(tmp / file) for name, file in (
        ("raw", "ar.raw"), ("wav", "ar.wav"), ("flat", "flat.raw"), ("nan", "nan.raw"),
        ("empty", "empty.raw"), ("empty_wav", "empty.wav"), ("riff_wav", "riff.wav"),
        ("odd_wav", "odd.wav"), ("short_wav", "short.wav"))}


class TestErrorTable:
    @pytest.mark.parametrize("case", list(ERROR_TABLE))
    def test_error_json(self, tmp_path, capsys, monkeypatch, recordings, case):
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("Monte Carlo pass started")
        monkeypatch.setattr("snrsub.cli.mc_reports", no_monte_carlo)
        argv, code, message = ERROR_TABLE[case]
        paths = dict(recordings, tmp=str(tmp_path))
        exit_code, stdout, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert (exit_code, stdout) == (1, "")
        assert json.loads(err) == {
            "schema_version": 1,
            "error": {"code": code, "message": message.format(**paths)},
        }

    @pytest.mark.parametrize("argv,flag,value", list(float_flag_cases()))
    def test_every_float_flag_must_be_finite(self, tmp_path, capsys, monkeypatch, argv, flag,
                                             value):
        # main checks each float flag before any work: no input is read, no
        # Monte Carlo pass starts, and no output or manifest is written
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("Monte Carlo pass started")
        monkeypatch.setattr("snrsub.cli.mc_reports", no_monte_carlo)
        exit_code, stdout, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv),
                                         f"{flag}={value}")
        assert (exit_code, stdout) == (1, "")
        assert json.loads(err)["error"] == {"code": "invalid-config",
                                            "message": f"{flag} must be finite, got {value}"}
        assert list(tmp_path.iterdir()) == []

    def test_codes_match_the_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Reports and determinism", 1)[1].split("\n#", 1)[0]
        documented = set(re.findall(r"^\| `([a-z-]+)` \|", section, re.MULTILINE))
        assert documented == {code for _, code, _ in ERROR_TABLE.values()}

    @pytest.mark.parametrize("command", ["estimate", "select-block", "mc"])
    def test_threads_help_names_the_environment_variable(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "$SNRSUB_THREADS" in capsys.readouterr().out


class TestInProcessRepeats:
    def test_second_run_of_each_command_is_byte_identical(self, tmp_path, capsys):
        # one process runs every command twice, in rounds; the block lengths
        # interleave (662, 88..882, 441 and 662, 441), so the cached CV plan
        # is a different one each time a command runs again
        path, _ = simulate_ar(tmp_path, capsys, duration="0.4")
        common = ["--input", path, "--fs", "44100"]
        commands = {
            "estimate": ["estimate", *common, "--block-samples", "662", "--k", "24",
                         "--seed", "9", "--snr-csv", "{out}"],
            "select-block": ["select-block", *common, "--grid-steps", "6", "--k", "32",
                             "--seed", "4", "--table-csv", "{out}"],
            "mc": ["mc", "--design", "ar", "--snr", "6", "--quick", "--seed", "2",
                   "--csv", "{out}"],
            "bandwidth": ["bandwidth", *common, "--block-samples", "441", "--start", "500"],
        }
        outputs = {name: [] for name in commands}
        for round_ in range(2):
            for name, argv in commands.items():
                out = tmp_path / f"{name}.{round_}.out"
                code, stdout, err = run_cli(capsys, *(a.format(out=out) for a in argv))
                assert code == 0, err
                outputs[name].append((stdout, out.read_bytes() if out.exists() else None))
        for name, (first, second) in outputs.items():
            assert second == first, name


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = str(tmp_path / "m.raw")
        proc = subprocess.run(
            [sys.executable, "-m", "snrsub.cli", "simulate", "--design", "sine-only",
             "--duration", "0.01", "--fs", "1000", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["derived"]["n"] == 10
