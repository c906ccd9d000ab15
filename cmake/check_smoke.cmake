# Invariant-check smoke (run via `cmake -P` from ctest, see
# examples/CMakeLists.txt): drives flow_cli end-to-end with --check=full on a
# shrunken design and asserts that (a) the run exits 0 — flow_cli exits 2
# when any validator reports a violation — (b) the stdout summary reports
# zero violations, and (c) the JSON run report carries the per-checker
# "checks" section with every phase validator present. It also asserts that
# every malformed flag value is a usage error (exit 2 with the usage text)
# raised before any flow runs, and that an STA error in --report-paths exits
# 3 like any other unabsorbed flow error.
#
# Inputs: -DFLOW_CLI=<path to flow_cli> -DWORK_DIR=<writable directory>
#         -DPPACD_TELEMETRY=ON|OFF (OFF skips (c): no report is written)

if(NOT DEFINED FLOW_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "check_smoke: FLOW_CLI and WORK_DIR must be defined")
endif()

# Usage errors. Each case is one flag list ("|" separates its words); the
# leading --cells 200 --place-only keeps a wrongly accepted case short.
set(usage_cases
  "--flow|typo" "--flow|bc" "--flow|overlay" "--tool|bogus" "--shapes|square"
  "--cells|abc" "--cells|0" "--cells|12x" "--shards|-2" "--threads|0"
  "--threads|4x" "--flow|default|--sharded" "--sharded|--flow|default")
foreach(usage_case IN LISTS usage_cases)
  string(REPLACE "|" ";" case_args "${usage_case}")
  execute_process(
    COMMAND "${FLOW_CLI}" --design aes --cells 200 --place-only ${case_args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "flow_cli ${usage_case}: want exit 2, got ${rc}:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "usage: flow_cli" pos)
  if(pos EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR
            "flow_cli ${usage_case}: want only a usage error:\n${out}\n${err}")
  endif()
endforeach()

# --report-paths runs its own STA after the flow; a failure there is an
# unabsorbed flow error (exit 3). The default flow with --place-only runs no
# other STA, so the plan reaches only that call.
execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 200 --flow default --place-only
          --report-paths 1 --fault-plan "seed=1;sta.arrival=error"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${err}" "sta-arrival-failed" pos)
if(NOT rc EQUAL 3 OR pos EQUAL -1)
  message(FATAL_ERROR
          "--report-paths under sta.arrival=error: want exit 3 naming "
          "sta-arrival-failed, got ${rc}:\n${out}\n${err}")
endif()

set(report "${WORK_DIR}/check_smoke_report.json")

execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 400 --flow ours
          --check full --report "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_cli --check full failed (${rc}):\n${out}\n${err}")
endif()

string(FIND "${out}" "check violations: 0 (full level)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected a zero-violation check summary, got:\n${out}")
endif()

if(DEFINED PPACD_TELEMETRY AND NOT PPACD_TELEMETRY)
  message(STATUS "check smoke OK (telemetry compiled out: report not checked)")
  return()
endif()

file(READ "${report}" report_text)
# The report must record the check level and one entry per phase validator.
foreach(key "checks" "check_level")
  string(FIND "${report_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report missing \"${key}\":\n${report_text}")
  endif()
endforeach()
foreach(checker "netlist" "cluster" "place" "route")
  string(FIND "${report_text}" "\"checker\": \"${checker}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report has no ${checker} check entry:\n${report_text}")
  endif()
endforeach()
string(REGEX MATCH "\"violations\": [1-9]" dirty "${report_text}")
if(dirty)
  message(FATAL_ERROR "report records violations:\n${report_text}")
endif()

message(STATUS "check smoke OK: ${report}")
