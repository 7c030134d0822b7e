#!/usr/bin/env python3
"""End-to-end test of emsim_cli's worker and merge modes.

Runs the real binary and checks the determinism contract from
docs/SWEEPS.md:

  * hand-run --sweep-worker shards merged with --sweep-merge reproduce the
    single-process output (table and JSON) byte for byte, for several
    shard counts, with fault injection enabled;
  * workers given plain experiment flags (no --spec) build the same task
    grid, so their merge matches the single-process run too;
  * a worker records task failures as data; the merge and the
    single-process run both exit 1 with the same lowest-index failure;
  * invalid flag values (--trials 0, a nan number, an int out of range, a
    malformed --shard) exit 2 with a message naming the flag, never a
    CHECK abort, and the retired --sweep driver flag is unknown;
  * --spec refuses every experiment flag beside it, and every spec key has
    an experiment flag;
  * a spec or artifact path that cannot be read is an IoError naming it;
  * with separate write disks, --metrics exports their timelines under
    write_disk* names and leaves every read-side sample as it was.

Usage: sweep_cli_test.py <path-to-emsim_cli>
"""

import json
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


def failure_line(stderr):
    lines = [l for l in stderr.splitlines() if "sweep task 0 failed:" in l]
    if len(lines) != 1:
        raise AssertionError(f"expected one failure line in:\n{stderr}")
    return lines[0]


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

    def worker_and_merge(self, args, shards, merge_args):
        """Runs `shards` workers over `args`, then merges their artifacts."""
        shard_files = []
        for k in range(shards):
            out = os.path.join(self.dir, f"shard_{k}_of_{shards}.json")
            run_cli(args + ["--sweep-worker", "--shard", f"{k}/{shards}",
                            "--shard-out", out], cwd=self.dir)
            shard_files.append(out)
        return run_cli(args + ["--sweep-merge"] + merge_args + shard_files,
                       cwd=self.dir)

    def test_flag_driven_workers_match_single_process(self):
        flags = ["--runs", "4", "--disks", "2", "--blocks", "30", "--n", "2",
                 "--trials", "3", "--cpu_ms", "0.0123456789",
                 "--fault_spike_rate", "0.05"]
        want = run_cli(flags + ["--json", "-"], cwd=self.dir)
        proc = self.worker_and_merge(flags, 3, ["--json", "-"])
        self.assertEqual(proc.stdout, want.stdout)
        self.assertEqual(proc.stderr, want.stderr)

    def test_print_spec_shows_cli_defaults(self):
        proc = run_cli(["--runs", "4", "--disks", "2", "--blocks", "30",
                        "--trials", "1", "--print_spec"], cwd=self.dir)
        # Every key left at its default is omitted, so this pins the flag
        # defaults to MergeConfig's apart from n and strategy.
        self.assertTrue(proc.stdout.startswith(
            "[cli]\nruns = 4\ndisks = 2\nblocks = 30\nn = 10\n"
            "strategy = all-disks-one-run\nsync = unsync\n"
            "admission = conservative\nvictim = random\ndepletion = uniform\n"
            "seed = 1\ntrials = 1\n\n"), proc.stdout)

    def test_manual_worker_and_merge_match(self):
        want_json, want_table = self.single_process_reference()
        for shards in (1, 2, 7):
            with self.subTest(shards=shards):
                proc = self.worker_and_merge(["--spec", self.spec], shards,
                                             ["--json", "-"])
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
        merge_line = failure_line(proc.stderr)

        # The single-process run reports the same failure the same way, from
        # the spec or from the equivalent flags.
        for args in (["--spec", bad_spec],
                     ["--runs", "4", "--disks", "2", "--blocks", "30", "--n", "1",
                      "--strategy", "demand-run-only", "--trials", "2"]):
            with self.subTest(args=args):
                proc = run_cli(args + ["--max_sim_events", "1"], cwd=self.dir,
                               check=False)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertNotIn("EMSIM_CHECK", proc.stderr)
                line = failure_line(proc.stderr)
                if args[0] == "--spec":
                    self.assertEqual(line, merge_line)
                else:
                    self.assertIn("sweep task 0 failed: DeadlineExceeded", line)

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
                      ["--fault_media_error_rate", "0.1", "--fault_timeout_ms", "nan"],
                      ["--n", "4294967297"],
                      ["--disks", "2147483647"],
                      ["--runs", "2147483647"]):
            with self.subTest(extra=extra):
                proc = run_cli(base + extra, cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertNotIn("EMSIM_CHECK", proc.stderr)
                self.assertIn(extra[-2].lstrip("-"), proc.stderr)
        out = os.path.join(self.dir, "never_written.json")
        for text in ("0/2x", "0/2/9", "1/+2", "-0/2", " 0/2", "2/2", "0/0", "0/",
                     "/2", "0/99999999999"):
            with self.subTest(shard=text):
                proc = run_cli(base + ["--sweep-worker", "--shard-out", out,
                                       "--shard", text],
                               cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("--shard must be k/N", proc.stderr)
                self.assertFalse(os.path.exists(out))

    def test_each_mode_rejects_the_arguments_of_the_others(self):
        base = ["--runs", "4", "--disks", "2", "--blocks", "20", "--trials", "1"]
        out = os.path.join(self.dir, "never_written.json")
        cases = (
            # Single-process mode: no artifact paths, no shard.
            (["stray_arg.json", "--json", out], "'stray_arg.json'"),
            (["--shard", "9/2", "--json", out], "--shard"),
            (["--shard-out", out], "--shard-out"),
            # Worker mode: no artifact paths.
            (["--sweep-worker", "--shard", "0/2", "--shard-out", out, "stray_arg.json"],
             "'stray_arg.json'"),
            # Merge mode: no shard.
            (["--sweep-merge", "s0.json", "--shard", "0/2", "--json", out], "--shard"),
            (["--sweep-merge", "s0.json", "--shard-out", out, "--json", out], "--shard-out"),
        )
        for extra, named in cases:
            with self.subTest(extra=extra):
                proc = run_cli(base + extra, cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(named, proc.stderr)
                self.assertFalse(os.path.exists(out))

    def test_separate_write_disks_export_their_own_timelines(self):
        flags = ["--runs", "6", "--disks", "2", "--n", "2", "--trials", "1"]

        def trial(args):
            doc = json.loads(run_cli(args + ["--metrics", "--json", "-"],
                                     cwd=self.dir).stdout)
            return doc["experiments"][0]["result"]["per_trial"][0]

        two_writers = os.path.join(self.dir, "writers.ini")
        with open(two_writers, "w", encoding="utf-8") as f:
            f.write("runs = 6\ndisks = 2\nn = 2\ntrials = 1\n"
                    "[w]\nwrite_traffic = separate\nwrite_disks = 2\n")
        no_writes = trial(flags)
        for args, writers in ((flags + ["--write_traffic", "separate"], 1),
                              (["--spec", two_writers], 2)):
            with self.subTest(writers=writers):
                t = trial(args)
                m = t["metrics"]
                write_keys = {k for k in m if k.startswith("write_disk")}
                want = {"write_disk.requests", "write_disk.blocks_transferred"}
                for i in range(writers):
                    for line in ("busy", "queue_len"):
                        want |= {f"write_disk{i}.{line}.{stat}"
                                 for stat in ("active_ms", "avg", "avg_active")}
                want |= {f"write_disks.concurrency.{stat}"
                         for stat in ("active_ms", "avg", "avg_active")}
                self.assertEqual(write_keys, want)
                self.assertEqual(m["write_disk.requests"], t["writes"]["requests"])
                self.assertEqual(m["write_disk.blocks_transferred"],
                                 t["writes"]["blocks"])
                # The read side exports the same samples as without writes,
                # each still equal to the read disks' own statistics.
                self.assertEqual(set(m) - write_keys, set(no_writes["metrics"]))
                self.assertEqual(m["disk.requests"], t["disk_totals"]["requests"])
                self.assertEqual(m["disk.blocks_transferred"],
                                 t["disk_totals"]["blocks_transferred"])
                for d in t["per_disk"]:
                    self.assertEqual(m[f"disk{d['id']}.busy.avg"], d["busy_fraction"])
                    self.assertEqual(m[f"disk{d['id']}.queue_len.avg"],
                                     d["mean_queue_length"])
                self.assertEqual(m["disks.concurrency.avg_active"],
                                 t["avg_concurrency"])

    def test_spec_refuses_experiment_flags(self):
        # Each flag is refused even at its default value, before any output.
        for extra, named in ((["--runs", "6", "--disks", "2", "--n", "2"], "--runs"),
                             (["--runs", "25"], "--runs"),
                             (["--trials=5"], "--trials"),
                             (["--print_spec", "--write_batch", "10"], "--write_batch")):
            with self.subTest(extra=extra):
                proc = run_cli(["--spec", self.spec] + extra, cwd=self.dir,
                               check=False)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(named + " cannot be combined with --spec", proc.stderr)
                self.assertEqual(proc.stdout, "")
        # --help still shows every default.
        usage = run_cli(["--help"], cwd=self.dir).stdout
        for line in ("--runs", "(default: 25)"), ("--trials", "(default: 5)"):
            self.assertTrue(any(line[0] in l and line[1] in l
                                for l in usage.splitlines()), line)

    def test_help_lists_a_flag_for_every_spec_key(self):
        # Every key the spec parser accepts, each off its default.
        keys = {
            "runs": "6", "disks": "3", "blocks": "20", "n": "2", "cache": "40",
            "seed": "9", "trials": "1", "strategy": "demand-run-only",
            "sync": "sync", "admission": "greedy", "victim": "round-robin",
            "depletion": "zipf", "zipf_theta": "0.5", "cpu_ms": "0.1",
            "write_traffic": "separate", "write_disks": "2", "write_batch": "4",
            "fault_media_error_rate": "0.01", "fault_spike_rate": "0.02",
            "fault_spike_ms": "5", "fault_slow_disk": "1",
            "fault_slow_factor": "2", "fault_slow_start_ms": "1",
            "fault_slow_end_ms": "100", "fault_stop_disk": "2",
            "fault_stop_start_ms": "10", "fault_stop_end_ms": "20",
            "fault_seed": "5", "fault_max_retries": "3",
            "fault_timeout_ms": "1000", "fault_backoff_ms": "10",
            "fault_backoff_mult": "3",
        }
        spec = os.path.join(self.dir, "every_key.ini")
        with open(spec, "w", encoding="utf-8") as f:
            f.write("[every]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        printed = run_cli(["--spec", spec, "--print_spec"], cwd=self.dir).stdout
        spec_keys = {line.split(" = ")[0] for line in printed.splitlines()
                     if " = " in line}
        self.assertEqual(spec_keys, set(keys))
        usage = run_cli(["--help"], cwd=self.dir).stdout
        flags = {line.split()[0] for line in usage.splitlines()
                 if line.startswith("  --")}
        self.assertEqual({f"--{k}" for k in spec_keys} - flags, set())

    def test_unreadable_inputs_are_io_errors_naming_the_path(self):
        # A directory opens but does not read; it must not pass for an empty
        # spec or a footerless artifact.
        for args in (["--spec", self.dir],
                     ["--spec", self.spec, "--sweep-merge", self.dir]):
            with self.subTest(args=args):
                proc = run_cli(args, cwd=self.dir, check=False)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn(f"IoError: cannot read {self.dir}", proc.stderr)

    def test_retired_sweep_driver_flag_is_unknown(self):
        proc = run_cli(["--spec", self.spec, "--sweep", "7"], cwd=self.dir,
                       check=False)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("unknown flag --sweep", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: sweep_cli_test.py <path-to-emsim_cli>")
    CLI = os.path.abspath(sys.argv[1])
    del sys.argv[1]
    unittest.main(verbosity=2)
