# Live ops-plane probe — runs *concurrently* with a dcs_collector that is
# ingesting (see service_smoke.cmake), so every assertion here is against a
# live server:
#   * /healthz answers and reports a running collector,
#   * /metrics is well-formed Prometheus text and carries the
#     dcs_trace_stage_ns family for every pipeline stage plus
#     dcs_detection_freshness_ns with nonzero count,
#   * /traces contains at least one complete epoch trace.
# Fetches via curl when available, else CMake's file(DOWNLOAD).
#
# Last, it runs one small dcs_agent as the collector's second site, whose
# Bye lets the collector exit.
#
# Inputs: -DOPS_PORT_FILE=<path the collector publishes its ops port to>
#         -DOUT_DIR=<scratch directory for fetched payloads>
#         -DDCS_AGENT=<dcs_agent binary>
#         -DCOLLECTOR_PORT_FILE=<path the collector publishes its port to>
find_program(CURL_EXE curl)

function(fetch path out_var)
  set(url "http://127.0.0.1:${ops_port}${path}")
  string(MAKE_C_IDENTIFIER "${path}" slug)
  set(out_file ${OUT_DIR}/probe${slug})
  file(REMOVE ${out_file})
  if(CURL_EXE)
    execute_process(COMMAND ${CURL_EXE} -s -S -m 5 -o ${out_file} ${url}
      RESULT_VARIABLE rc ERROR_VARIABLE fetch_err)
  else()
    file(DOWNLOAD ${url} ${out_file} TIMEOUT 5 STATUS status)
    list(GET status 0 rc)
    list(GET status 1 fetch_err)
  endif()
  if(NOT rc EQUAL 0 OR NOT EXISTS ${out_file})
    set(${out_var} "" PARENT_SCOPE)
    return()
  endif()
  file(READ ${out_file} text)
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# The collector publishes the ops port atomically once its server is up.
set(waited 0)
while(NOT EXISTS ${OPS_PORT_FILE})
  if(waited GREATER 300)
    message(FATAL_ERROR "ops_probe: ${OPS_PORT_FILE} never appeared")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()
file(READ ${OPS_PORT_FILE} ops_port)
string(STRIP "${ops_port}" ops_port)

# Poll until the pipeline has demonstrably moved an epoch end to end: the
# freshness SLO histogram has counted at least one merge and the trace ring
# holds a complete trace. Everything after the loop asserts on the payloads
# captured while the collector was live.
set(metrics "")
set(traces "")
set(waited 0)
while(1)
  fetch("/metrics" metrics)
  fetch("/traces" traces)
  if(metrics MATCHES "dcs_detection_freshness_ns_count [1-9]"
     AND traces MATCHES "\"complete\": true")
    break()
  endif()
  if(waited GREATER 300)
    message(FATAL_ERROR "ops_probe: no complete trace after 30s;"
      " /metrics:\n${metrics}\n/traces:\n${traces}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()

# Liveness endpoint: running, JSON-shaped.
fetch("/healthz" healthz)
foreach(needle "\"status\": \"ok\"" "\"running\": true" "\"deltas_merged\":")
  if(NOT healthz MATCHES "${needle}")
    message(FATAL_ERROR "ops_probe: /healthz missing '${needle}':\n${healthz}")
  endif()
endforeach()

# Per-site table: the shipping site must be present with a live watermark.
fetch("/sites" sites)
if(NOT sites MATCHES "\"site_id\": 9[^0-9]" OR NOT sites MATCHES "\"last_epoch\":")
  message(FATAL_ERROR "ops_probe: /sites missing the live site:\n${sites}")
endif()

# Every pipeline stage family must be listed (count may be 0 for the
# agent-side stages — this scrape is the collector's).
foreach(stage sealed spooled shipped received admitted journaled merged
        detector_evaluated)
  if(NOT metrics MATCHES "dcs_trace_stage_ns_count\\{stage=\"${stage}\"\\}")
    message(FATAL_ERROR "ops_probe: /metrics missing stage '${stage}':\n"
      "${metrics}")
  endif()
endforeach()

# The collector-side stages must actually have counted something.
foreach(stage received admitted merged detector_evaluated)
  if(NOT metrics MATCHES "dcs_trace_stage_ns_count\\{stage=\"${stage}\"\\} [1-9]")
    message(FATAL_ERROR "ops_probe: stage '${stage}' never observed:\n"
      "${metrics}")
  endif()
endforeach()

# Prometheus text-format sanity: every line is a comment or
# `name[{labels}] value`. Semicolons inside HELP text would split a single
# line into several list items, so neutralize them before splitting.
string(REPLACE ";" ","  metric_lines "${metrics}")
string(REPLACE "\n" ";" metric_lines "${metric_lines}")
foreach(line ${metric_lines})
  if(line MATCHES "^#")
    continue()
  endif()
  if(NOT line MATCHES "^[a-zA-Z_][a-zA-Z0-9_]*(\\{[^{}]*\\})? -?[0-9]+$")
    message(FATAL_ERROR "ops_probe: malformed Prometheus line '${line}'")
  endif()
endforeach()

execute_process(
  COMMAND ${DCS_AGENT} --site 10 --port-file ${COLLECTOR_PORT_FILE}
          --u 200 --d 5 --epoch-updates 100
  RESULT_VARIABLE release_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT release_rc EQUAL 0)
  message(FATAL_ERROR "ops_probe: releasing agent failed (${release_rc})")
endif()

message(STATUS "ops_probe: live scrape OK (freshness counted, trace complete)")
