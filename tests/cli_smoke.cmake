# End-to-end smoke test for dcs_cli: every subcommand runs against a small
# generated trace and must exit 0. Invoked by ctest (see CMakeLists.txt).
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli)
  execute_process(
    COMMAND ${DCS_CLI} ${ARGV}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "dcs_cli ${ARGV} failed (${status}):\n${output}")
  endif()
endfunction()

run_cli(generate --out trace.bin --u 20000 --d 200 --z 1.5 --churn 1 --seed 3)
run_cli(generate --out trace.csv --u 1000 --d 20 --csv)
run_cli(info --trace trace.bin)
run_cli(topk --trace trace.bin --k 5)
run_cli(topk --trace trace.bin --k 5 --exact)
# Batched ingest must print exactly what sequential ingest prints.
execute_process(
  COMMAND ${DCS_CLI} topk --trace trace.bin --k 5
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE seq_status
  OUTPUT_VARIABLE seq_out ERROR_VARIABLE seq_err)
execute_process(
  COMMAND ${DCS_CLI} topk --trace trace.bin --k 5 --batch --block 100
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE batch_status
  OUTPUT_VARIABLE batch_out ERROR_VARIABLE batch_err)
if(NOT seq_status EQUAL 0 OR NOT batch_status EQUAL 0)
  message(FATAL_ERROR "topk --batch smoke failed:\n${seq_err}\n${batch_err}")
endif()
if(NOT seq_out STREQUAL batch_out)
  message(FATAL_ERROR "topk --batch output diverged from sequential:\n"
    "sequential:\n${seq_out}\nbatched:\n${batch_out}")
endif()
# Threaded ingest seals one epoch sketch per thread and merges the blobs;
# by linearity its entries must be exactly the sequential tracker's.
execute_process(
  COMMAND ${DCS_CLI} topk --trace trace.bin --k 5 --threads 3
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE threads_status
  OUTPUT_VARIABLE threads_out ERROR_VARIABLE threads_err)
if(NOT threads_status EQUAL 0)
  message(FATAL_ERROR "topk --threads smoke failed:\n${threads_err}")
endif()
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  seq_entries "${seq_out}")
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  threads_entries "${threads_out}")
if("${seq_entries}" STREQUAL "" OR
   NOT seq_entries STREQUAL threads_entries)
  message(FATAL_ERROR "topk --threads entries diverged from sequential:\n"
    "sequential:\n${seq_out}\nthreaded:\n${threads_out}")
endif()
run_cli(sketch --trace trace.bin --out a.dcs --seed 9)
run_cli(sketch --trace trace.bin --out b.dcs --seed 9)
run_cli(merge --out merged.dcs a.dcs b.dcs)
run_cli(query --sketch merged.dcs --k 3)
run_cli(query --sketch merged.dcs --tau 100)
run_cli(diff --base a.dcs --sketch b.dcs --k 3)

# Serialize -> deserialize -> query round trip: the persisted sketch must
# answer exactly what the live tracker answers on the same trace and
# parameters (the CRC-footered blob neither loses nor distorts state).
execute_process(
  COMMAND ${DCS_CLI} topk --trace trace.bin --k 5 --seed 9
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE live_status
  OUTPUT_VARIABLE live_out ERROR_VARIABLE live_err)
execute_process(
  COMMAND ${DCS_CLI} query --sketch a.dcs --k 5
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE persisted_status
  OUTPUT_VARIABLE persisted_out ERROR_VARIABLE persisted_err)
if(NOT live_status EQUAL 0 OR NOT persisted_status EQUAL 0)
  message(FATAL_ERROR "round-trip smoke failed:\n${live_err}\n${persisted_err}")
endif()
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  live_entries "${live_out}")
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  persisted_entries "${persisted_out}")
if("${live_entries}" STREQUAL "" OR
   NOT live_entries STREQUAL persisted_entries)
  message(FATAL_ERROR "persisted-sketch query diverged from live topk:\n"
    "live:\n${live_out}\npersisted:\n${persisted_out}")
endif()
run_cli(monitor --trace trace.bin --min-absolute 100)
run_cli(monitor --trace trace.bin --by-source --min-absolute 100)

# Telemetry export: the snapshot files must exist and carry the core
# counters in both formats, and the alert log must be a JSON array.
run_cli(topk --trace trace.bin --k 5 --metrics-out metrics.prom)
file(READ ${WORK_DIR}/metrics.prom prom_text)
foreach(needle
    "# TYPE dcs_sketch_updates_total counter"
    "# TYPE dcs_tracking_updates_total counter"
    "dcs_tracking_updates_total [1-9]"
    "# TYPE dcs_tracking_query_latency_ns histogram"
    "dcs_tracking_query_latency_ns_count [1-9]")
  if(NOT prom_text MATCHES "${needle}")
    message(FATAL_ERROR "metrics.prom is missing '${needle}':\n${prom_text}")
  endif()
endforeach()

run_cli(monitor --trace trace.bin --min-absolute 100
  --metrics-out metrics.json --metrics-format json --alerts-out alerts.json)
file(READ ${WORK_DIR}/metrics.json json_text)
foreach(needle "dcs_monitor_checks_total" "dcs_tracking_updates_total"
    "\"histograms\":")
  if(NOT json_text MATCHES "${needle}")
    message(FATAL_ERROR "metrics.json is missing '${needle}':\n${json_text}")
  endif()
endforeach()
file(READ ${WORK_DIR}/alerts.json alerts_text)
if(NOT alerts_text MATCHES "^\\[")
  message(FATAL_ERROR "alerts.json is not a JSON array:\n${alerts_text}")
endif()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  # Both documents must parse as JSON, and the monitor counter must be a
  # plain number.
  string(JSON n_counters LENGTH "${json_text}" counters)
  if(n_counters LESS 5)
    message(FATAL_ERROR "metrics.json has only ${n_counters} counters")
  endif()
  string(JSON alerts_len LENGTH "${alerts_text}")
  message(STATUS "metrics.json: ${n_counters} counters; "
    "alerts.json: ${alerts_len} events")
endif()

# An unknown metrics format must fail cleanly.
execute_process(COMMAND ${DCS_CLI} topk --trace trace.bin --metrics-out x
    --metrics-format yaml
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET)
if(status EQUAL 0)
  message(FATAL_ERROR "unknown --metrics-format should fail")
endif()

# convert: text packet log -> trace, then query it.
file(WRITE ${WORK_DIR}/packets.txt
"# ts source dest flag
0 10.0.0.1 192.168.1.1 S
5 10.0.0.2 192.168.1.1 S
9 10.0.0.1 192.168.1.1 A
20 3232235777 500 S
")
run_cli(convert --in packets.txt --out converted.bin)
run_cli(info --trace converted.bin)
run_cli(convert --in packets.txt --out converted_timeout.bin --timeout 100)

# Failure paths must fail cleanly (nonzero exit, no crash).
execute_process(COMMAND ${DCS_CLI} query --sketch missing.dcs
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET)
if(status EQUAL 0)
  message(FATAL_ERROR "query of a missing sketch should fail")
endif()
execute_process(COMMAND ${DCS_CLI} not-a-command
  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET)
if(status EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()
