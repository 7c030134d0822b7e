# The counter half of the perf-smoke gate: runs bench_kernel_micro as CI's
# perf-smoke job does, then gates the report with check_bench.py
# (allocs_per_op may not grow, events_per_op must match).
#
#   cmake -DBENCH=<bench_kernel_micro> -DPYTHON=<python3> -DSOURCE_DIR=<repo>
#         -DWORK_DIR=<dir> -P perf_counter_gate.cmake

foreach(var BENCH PYTHON SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perf_counter_gate: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
# The minimum time is the baseline capture's: the full-trial benches average
# their counters over per-iteration seeds, and a run short enough to report
# one iteration would also count the process's one-time allocations.
execute_process(COMMAND "${BENCH}" --benchmark_min_time=0.5
                        --benchmark_out=${WORK_DIR}/BENCH_kernel_micro.json
                        --benchmark_out_format=json
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE exit_code
                OUTPUT_QUIET)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "perf_counter_gate: bench_kernel_micro exited ${exit_code}")
endif()
# Wall time is gated only in CI, against the machine the baseline was
# captured on; the ratio here is set out of reach so only the counters gate.
execute_process(COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/perf/check_bench.py"
                        --baseline "${SOURCE_DIR}/tools/perf/baseline_kernel_micro.json"
                        --current "${WORK_DIR}/BENCH_kernel_micro.json"
                        --max-ratio 1e9
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "perf_counter_gate: check_bench.py exited ${exit_code}")
endif()
