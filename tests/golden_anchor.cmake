# Byte anchor: runs one artifact-producing command in a fresh directory and
# fails unless the artifact's sha256 equals the pinned hash.
#
#   cmake -DWORK_DIR=<dir> -DARTIFACT=<file> -DSHA256=<hex> \
#         -P golden_anchor.cmake -- <command> [args...]
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

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{EMSIM_BENCH_JSON} 1)
set(ENV{EMSIM_BENCH_JSON_DIR} "${WORK_DIR}")
unset(ENV{EMSIM_BENCH_TRIALS})
execute_process(COMMAND ${command}
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE exit_code
                OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "golden_anchor: command exited ${exit_code}:\n${stderr_text}")
endif()

file(SHA256 "${WORK_DIR}/${ARTIFACT}" actual)
if(NOT actual STREQUAL SHA256)
  message(FATAL_ERROR "golden_anchor: ${ARTIFACT} moved\n  sha256 ${actual}\n  pinned ${SHA256}")
endif()
message(STATUS "golden_anchor: ${ARTIFACT} sha256 ${actual}")
