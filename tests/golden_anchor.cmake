# Byte anchor: runs one artifact-producing command in a fresh directory and
# fails unless the artifact's sha256 equals the pinned hash.
#
#   cmake -DWORK_DIR=<dir> -DARTIFACT=<file> -DSHA256=<hex> [-DSHARDS=<n>] \
#         -P golden_anchor.cmake -- <command> [args...]
#
# With SHARDS set, the command is an emsim_cli sweep split across processes
# (docs/SWEEPS.md): it runs as n workers, one after another,
#
#   <command> --sweep-worker --shard k/n --shard-out shard_k.json
#
# for k = 0..n-1, then as one merge of their artifacts,
#
#   <command> --sweep-merge shard_0.json ... --json <ARTIFACT>
#
# The command runs with WORK_DIR as its working directory and with
# EMSIM_BENCH_JSON=1 and EMSIM_BENCH_JSON_DIR=WORK_DIR set, so a bench binary
# writes its BENCH_*.json there. EMSIM_BENCH_TRIALS is cleared: the pinned
# bench artifacts are the default-trial runs. The command's stdout goes to
# WORK_DIR/stdout.txt. ARTIFACT is a path relative to WORK_DIR.

foreach(var WORK_DIR ARTIFACT SHA256)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_anchor: -D${var}=... is required")
  endif()
endforeach()

set(command)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "golden_anchor: no command after --")
endif()

function(run_step)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE exit_code
                  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                  ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "golden_anchor: command exited ${exit_code}:\n${stderr_text}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{EMSIM_BENCH_JSON} 1)
set(ENV{EMSIM_BENCH_JSON_DIR} "${WORK_DIR}")
unset(ENV{EMSIM_BENCH_TRIALS})

if(DEFINED SHARDS)
  set(shard_files)
  math(EXPR last_shard "${SHARDS} - 1")
  foreach(k RANGE ${last_shard})
    run_step(${command} --sweep-worker --shard ${k}/${SHARDS} --shard-out shard_${k}.json)
    list(APPEND shard_files shard_${k}.json)
  endforeach()
  run_step(${command} --sweep-merge ${shard_files} --json ${ARTIFACT})
else()
  run_step(${command})
endif()

file(SHA256 "${WORK_DIR}/${ARTIFACT}" actual)
if(NOT actual STREQUAL SHA256)
  message(FATAL_ERROR "golden_anchor: ${ARTIFACT} moved\n  sha256 ${actual}\n  pinned ${SHA256}")
endif()
message(STATUS "golden_anchor: ${ARTIFACT} sha256 ${actual}")
