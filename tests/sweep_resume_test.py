#!/usr/bin/env python3
"""Crash-safety acceptance tests for the journaled sweep driver.

Drives the real emsim_cli binary through the durability contract in
docs/SWEEPS.md:

  * SIGKILL the driver while shards are in flight (at a seeded, randomized
    moment), then --sweep-resume: the merged JSON is byte-identical to an
    uninterrupted run and the journal records the resumed completion. This
    runs on a synthetic spec and on tools/sweep/specs/paper_smoke.ini; set
    EMSIM_CHAOS_SEED to replay a logged kill point;
  * a corrupted surviving artifact (truncation or bit flip) is detected on
    resume, quarantined as *.corrupt, re-executed, and the output is still
    byte-identical;
  * SIGTERM drains gracefully: exit code 3, journal has a drain record, and
    the run directory resumes to the identical bytes;
  * post-merge GC reclaims losing attempt files (journaled) and keeps the
    winners;
  * --sweep-stats embeds explicit-zero dispatch counters on a clean run and
    nonzero ones under chaos, without perturbing the default document.

Usage: sweep_resume_test.py <path-to-emsim_cli>
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
import unittest

CLI = None
SMOKE_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "sweep", "specs", "paper_smoke.ini")

SPEC = """\
trials = 3
disks = 2
blocks = 30
runs = 4

[baseline]
n = 1
strategy = demand-run-only

[prefetch]
n = 4
seed = 7

[faulty]
n = 2
trials = 4
fault_media_error_rate = 0.02
fault_spike_rate = 0.05
fault_spike_ms = 10
"""


def run_cli(args, cwd, check=True):
    proc = subprocess.run(
        [CLI] + args, cwd=cwd, capture_output=True, text=True, timeout=240
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"emsim_cli {' '.join(args)} exited {proc.returncode}:\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def journal_kinds(run_dir):
    path = os.path.join(run_dir, "journal.jsonl")
    kinds = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                kinds.append(json.loads(line)["kind"])
            except json.JSONDecodeError:
                # A torn final line while the driver is mid-append; the CLI
                # tolerates it on resume, so the poller does too.
                continue
    return kinds


class SweepResumeTest(unittest.TestCase):
    def setUp(self):
        import tempfile

        self.tmp = tempfile.TemporaryDirectory(prefix="emsim_sweep_resume_")
        self.dir = self.tmp.name
        self.spec = os.path.join(self.dir, "spec.ini")
        with open(self.spec, "w", encoding="utf-8") as f:
            f.write(SPEC)

    def tearDown(self):
        self.tmp.cleanup()

    def reference_json(self, spec=None):
        return run_cli(["--spec", spec or self.spec, "--json", "-"],
                       cwd=self.dir).stdout

    def sweep_args(self, run_dir, extra=None, spec=None):
        args = [
            "--spec", spec or self.spec,
            "--sweep", "4",
            "--sweep-workers", "1",
            "--shard-dir", run_dir,
            "--json", "-",
        ]
        return args + (extra or [])

    def resume_args(self, run_dir, extra=None, spec=None):
        args = ["--spec", spec or self.spec, "--sweep-resume", run_dir,
                "--json", "-"]
        return args + (extra or [])

    def test_sigkill_midway_then_resume_is_byte_identical(self):
        seed = int(os.environ.get("EMSIM_CHAOS_SEED", "0")) or int(time.time())
        rng = random.Random(seed)
        print(f"[chaos] seed={seed}", file=sys.stderr)
        for name, spec in (("synthetic", self.spec), ("paper_smoke", SMOKE_SPEC)):
            with self.subTest(spec=name):
                self.sigkill_then_resume(
                    spec, os.path.join(self.dir, f"run_sigkill_{name}"), rng)

    def sigkill_then_resume(self, spec, run_dir, rng):
        want = self.reference_json(spec)
        # Launch the driver, SIGKILL it once the journal shows a randomized
        # number of shard_done records (1 to 3 of the 4 shards).
        proc = subprocess.Popen(
            [CLI] + self.sweep_args(run_dir, spec=spec),
            cwd=self.dir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = os.path.join(run_dir, "journal.jsonl")
        deadline = time.time() + 120
        killed = False
        target_dones = rng.randint(1, 3)
        while time.time() < deadline and proc.poll() is None:
            try:
                kinds = journal_kinds(run_dir)
            except FileNotFoundError:
                kinds = []
            if kinds.count("shard_done") >= target_dones:
                proc.kill()
                killed = True
                break
            time.sleep(0.005)
        proc.wait(timeout=60)
        if not killed:
            # The sweep outran the poller; the resume below degrades to the
            # already-complete case, which must also be byte-identical.
            print("[chaos] driver finished before the kill", file=sys.stderr)
        self.assertTrue(os.path.exists(journal), "journal must survive the kill")

        resumed = run_cli(self.resume_args(run_dir, spec=spec), cwd=self.dir)
        self.assertEqual(resumed.stdout, want, "resumed JSON differs from reference")
        kinds = journal_kinds(run_dir)
        self.assertEqual(kinds[0], "run_start")
        self.assertEqual(kinds[-1], "run_done")

    def test_resume_after_truncated_artifact_quarantines_and_matches(self):
        want = self.reference_json()
        run_dir = os.path.join(self.dir, "run_trunc")
        run_cli(self.sweep_args(run_dir), cwd=self.dir)
        victim = os.path.join(run_dir, "shard_1_of_4.attempt1.json")
        with open(victim, "r+b") as f:
            f.truncate(os.path.getsize(victim) // 2)
        resumed = run_cli(self.resume_args(run_dir), cwd=self.dir)
        self.assertEqual(resumed.stdout, want)
        self.assertIn("quarantined", resumed.stderr)
        self.assertIn("shard_1_of_4.attempt1.json", resumed.stderr)
        self.assertTrue(os.path.exists(victim + ".corrupt"))
        self.assertIn("quarantine", journal_kinds(run_dir))

    def test_resume_after_bit_flip_quarantines_and_matches(self):
        want = self.reference_json()
        run_dir = os.path.join(self.dir, "run_flip")
        run_cli(self.sweep_args(run_dir), cwd=self.dir)
        victim = os.path.join(run_dir, "shard_2_of_4.attempt1.json")
        with open(victim, "r+b") as f:
            data = bytearray(f.read())
            data[len(data) // 3] ^= 0x01
            f.seek(0)
            f.write(data)
        resumed = run_cli(self.resume_args(run_dir), cwd=self.dir)
        self.assertEqual(resumed.stdout, want)
        self.assertIn("shard_2_of_4.attempt1.json", resumed.stderr)
        self.assertTrue(os.path.exists(victim + ".corrupt"))

    def test_sigterm_drains_with_exit_3_and_resumes(self):
        want = self.reference_json()
        run_dir = os.path.join(self.dir, "run_drain")
        proc = subprocess.Popen(
            [CLI] + self.sweep_args(run_dir),
            cwd=self.dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        journal = os.path.join(run_dir, "journal.jsonl")
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            try:
                if journal_kinds(run_dir).count("shard_done") >= 1:
                    proc.send_signal(signal.SIGTERM)
                    break
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        _, stderr = proc.communicate(timeout=120)
        if proc.returncode == 0:
            self.skipTest("sweep finished before SIGTERM landed")
        self.assertEqual(proc.returncode, 3, f"drain must exit 3:\n{stderr}")
        self.assertIn("drained", stderr)
        self.assertIn("drain", journal_kinds(run_dir))

        resumed = run_cli(self.resume_args(run_dir), cwd=self.dir)
        self.assertEqual(resumed.stdout, want)
        self.assertEqual(journal_kinds(run_dir)[-1], "run_done")

    def test_gc_reclaims_losing_attempts_and_keeps_winners(self):
        run_dir = os.path.join(self.dir, "run_gc")
        run_cli(
            self.sweep_args(
                run_dir,
                ["--sweep-chaos-kill-shard", "1", "--shard-backoff-ms", "1"],
            ),
            cwd=self.dir,
        )
        files = sorted(os.listdir(run_dir))
        # The chaos-killed attempt 1 of shard 1 must be gone; the winning
        # attempt 2 must remain. (A killed attempt usually writes nothing —
        # reclaim only fires when a stale file actually existed.)
        self.assertNotIn("shard_1_of_4.attempt1.json", files)
        self.assertIn("shard_1_of_4.attempt2.json", files)
        for shard in (0, 2, 3):
            self.assertIn(f"shard_{shard}_of_4.attempt1.json", files)
        kinds = journal_kinds(run_dir)
        self.assertEqual(kinds[-1], "run_done")

    def test_sweep_stats_zeros_when_clean_and_nonzero_under_chaos(self):
        want = self.reference_json()
        run_dir = os.path.join(self.dir, "run_stats")
        clean = run_cli(
            self.sweep_args(run_dir, ["--sweep-stats"]), cwd=self.dir
        )
        doc = json.loads(clean.stdout)
        self.assertIn("dispatch", doc)
        self.assertEqual(doc["dispatch"]["launches"], 4)
        for key in (
            "resubmissions",
            "deadline_kills",
            "chaos_kills",
            "spawn_failures",
            "drain_kills",
        ):
            self.assertEqual(doc["dispatch"][key], 0, key)
        # Without --sweep-stats the same run dir layout yields bytes
        # identical to the single-process document.
        plain = run_cli(
            self.sweep_args(os.path.join(self.dir, "run_stats_plain")),
            cwd=self.dir,
        )
        self.assertEqual(plain.stdout, want)

        chaos = run_cli(
            self.sweep_args(
                os.path.join(self.dir, "run_stats_chaos"),
                ["--sweep-stats", "--sweep-chaos-kill-shard", "0",
                 "--shard-backoff-ms", "1"],
            ),
            cwd=self.dir,
        )
        chaos_doc = json.loads(chaos.stdout)
        self.assertEqual(chaos_doc["dispatch"]["chaos_kills"], 1)
        self.assertEqual(chaos_doc["dispatch"]["resubmissions"], 1)
        self.assertEqual(chaos_doc["dispatch"]["launches"], 5)
        # Experiments payload is unchanged by the extra block.
        self.assertEqual(chaos_doc["experiments"], json.loads(want)["experiments"])

    def test_resume_with_wrong_spec_is_rejected(self):
        run_dir = os.path.join(self.dir, "run_wrong_spec")
        run_cli(self.sweep_args(run_dir), cwd=self.dir)
        other = os.path.join(self.dir, "other.ini")
        with open(other, "w", encoding="utf-8") as f:
            f.write("[other]\nruns = 5\ndisks = 2\nblocks = 30\n")
        proc = run_cli(
            ["--spec", other, "--sweep-resume", run_dir, "--json", "-"],
            cwd=self.dir,
            check=False,
        )
        self.assertEqual(proc.returncode, 2)
        self.assertIn("original spec", proc.stderr)

    def test_resume_without_journal_is_an_error(self):
        empty = os.path.join(self.dir, "not_a_run_dir")
        os.makedirs(empty)
        proc = run_cli(self.resume_args(empty), cwd=self.dir, check=False)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("journal", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: sweep_resume_test.py <path-to-emsim_cli>")
    CLI = os.path.abspath(sys.argv[1])
    del sys.argv[1]
    unittest.main(verbosity=2)
