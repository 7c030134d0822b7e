#!/usr/bin/env python3
"""End-to-end test of emsim_cli's sharded sweep fabric.

Runs the real binary in all four modes and checks the determinism contract
from docs/SWEEPS.md:

  * --sweep N output (table and JSON) is byte-identical to the
    single-process run, for several N, with fault injection enabled;
  * a chaos-killed worker shard is resubmitted and the run still completes
    with identical bytes;
  * hand-driven --sweep-worker / --sweep-merge reproduce the same bytes;
  * a worker records task failures as data and the merge surfaces the
    lowest-index failure with a nonzero exit;
  * invalid flag values (--trials 0, a nan number) exit 2 with a message
    naming the flag, never a CHECK abort.

Usage: sweep_cli_test.py <path-to-emsim_cli>
"""

import os
import subprocess
import sys
import tempfile
import unittest

CLI = None

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


class SweepCliTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="emsim_sweep_cli_")
        self.dir = self.tmp.name
        self.spec = os.path.join(self.dir, "spec.ini")
        with open(self.spec, "w", encoding="utf-8") as f:
            f.write(SPEC)

    def tearDown(self):
        self.tmp.cleanup()

    def single_process_reference(self):
        proc = run_cli(["--spec", self.spec, "--json", "-"], cwd=self.dir)
        return proc.stdout, proc.stderr

    def test_sweep_driver_matches_single_process(self):
        want_json, want_table = self.single_process_reference()
        for shards in (1, 2, 7):
            proc = run_cli(
                [
                    "--spec", self.spec,
                    "--sweep", str(shards),
                    "--shard-dir", os.path.join(self.dir, f"shards_{shards}"),
                    "--json", "-",
                ],
                cwd=self.dir,
            )
            self.assertEqual(proc.stdout, want_json, f"--sweep {shards} JSON differs")

    def test_chaos_killed_shard_is_resubmitted(self):
        want_json, _ = self.single_process_reference()
        proc = run_cli(
            [
                "--spec", self.spec,
                "--sweep", "3",
                "--sweep-chaos-kill-shard", "1",
                "--shard-backoff-ms", "1",
                "--shard-dir", os.path.join(self.dir, "shards_chaos"),
                "--json", "-",
            ],
            cwd=self.dir,
        )
        self.assertIn("chaos-killed", proc.stderr)
        self.assertIn("resubmitting", proc.stderr)
        self.assertEqual(proc.stdout, want_json)

    def test_manual_worker_and_merge_match(self):
        want_json, want_table = self.single_process_reference()
        shard_files = []
        for k in range(2):
            out = os.path.join(self.dir, f"manual_{k}.json")
            run_cli(
                ["--spec", self.spec, "--sweep-worker", "--shard", f"{k}/2",
                 "--shard-out", out],
                cwd=self.dir,
            )
            shard_files.append(out)
        proc = run_cli(
            ["--spec", self.spec, "--sweep-merge", "--json", "-"] + shard_files,
            cwd=self.dir,
        )
        self.assertEqual(proc.stdout, want_json)
        self.assertEqual(proc.stderr, want_table)

    def test_worker_records_failure_and_merge_surfaces_it(self):
        bad_spec = os.path.join(self.dir, "bad.ini")
        with open(bad_spec, "w", encoding="utf-8") as f:
            # max_sim_events is a CLI deadline flag, not a spec key, so the
            # failure is induced through the harness deadline instead.
            f.write("[dies]\nruns = 4\ndisks = 2\nblocks = 30\ntrials = 2\n")
        shard_files = []
        for k in range(2):
            out = os.path.join(self.dir, f"bad_{k}.json")
            proc = run_cli(
                ["--spec", bad_spec, "--max_sim_events", "1",
                 "--sweep-worker", "--shard", f"{k}/2", "--shard-out", out],
                cwd=self.dir,
            )
            self.assertEqual(proc.returncode, 0, "worker must exit 0 on task failure")
            shard_files.append(out)
        proc = run_cli(
            ["--spec", bad_spec, "--max_sim_events", "1", "--sweep-merge"]
            + shard_files,
            cwd=self.dir,
            check=False,
        )
        self.assertEqual(proc.returncode, 1)
        self.assertIn("sweep task 0 failed:", proc.stderr)
        self.assertIn("DeadlineExceeded", proc.stderr)

    def test_merge_rejects_mismatched_spec(self):
        out = os.path.join(self.dir, "mismatch.json")
        run_cli(
            ["--spec", self.spec, "--sweep-worker", "--shard", "0/1",
             "--shard-out", out],
            cwd=self.dir,
        )
        other_spec = os.path.join(self.dir, "other.ini")
        with open(other_spec, "w", encoding="utf-8") as f:
            f.write("[other]\nruns = 5\ndisks = 2\nblocks = 30\n")
        proc = run_cli(
            ["--spec", other_spec, "--sweep-merge", out], cwd=self.dir, check=False
        )
        self.assertEqual(proc.returncode, 1)
        self.assertIn("digest", proc.stderr)

    def test_invalid_flag_values_exit_2_without_check_abort(self):
        base = ["--runs", "5", "--disks", "2", "--blocks", "20", "--n", "2",
                "--trials", "1"]
        for extra in (["--trials", "0"],
                      ["--trials", "-3"],
                      ["--fault_media_error_rate", "0.1", "--fault_timeout_ms", "nan"]):
            with self.subTest(extra=extra):
                proc = run_cli(base + extra, cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertNotIn("EMSIM_CHECK", proc.stderr)
                self.assertIn(extra[-2].lstrip("-"), proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: sweep_cli_test.py <path-to-emsim_cli>")
    CLI = os.path.abspath(sys.argv[1])
    del sys.argv[1]
    unittest.main(verbosity=2)
