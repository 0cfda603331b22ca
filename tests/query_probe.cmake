# Query-tier probe — runs *concurrently* with a dcs_collector that is
# mid-ingest and a dcs_query_server watching its publish directory (see
# query_smoke.cmake), so every assertion is against snapshots that are
# actively being published and remapped:
#   * /topk serves a generation with entries while deltas are merging,
#   * every route answers 200 with the expected JSON shape,
#   * time travel by generation works and an unretained generation is an
#     honest 404 (never a silent upgrade to newer data),
#   * identical requests return byte-identical payloads (cache contract).
# When MODE=final the probe instead asserts the end-state answer: the
# newest generation's top-1 must match EXPECT_GROUP/EXPECT_ESTIMATE taken
# from the collector's own final stdout — the bit-for-bit serving check.
# Writing STOP_FILE at the end releases the server from the pipeline.
#
# Inputs: -DPORT_FILE=... -DOUT_DIR=... -DSTOP_FILE=...
#         [-DMODE=live|final] [-DEXPECT_GROUP=...] [-DEXPECT_ESTIMATE=...]
find_program(CURL_EXE curl)
if(NOT MODE)
  set(MODE live)
endif()

function(fetch path out_var)
  set(url "http://127.0.0.1:${query_port}${path}")
  string(MAKE_C_IDENTIFIER "${path}" slug)
  set(out_file ${OUT_DIR}/probe${slug})
  file(REMOVE ${out_file})
  if(CURL_EXE)
    execute_process(COMMAND ${CURL_EXE} -s -S -g -m 5 -o ${out_file} ${url}
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

function(finish)
  file(WRITE ${STOP_FILE} "done\n")
endfunction()

# The server publishes its port atomically once it is listening.
set(waited 0)
while(NOT EXISTS ${PORT_FILE})
  if(waited GREATER 300)
    finish()
    message(FATAL_ERROR "query_probe: ${PORT_FILE} never appeared")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()
file(READ ${PORT_FILE} query_port)
string(STRIP "${query_port}" query_port)

# Poll until a generation with real content is being served. In live mode
# ingest is still running; in final mode the snapshots already exist.
set(topk "")
set(waited 0)
while(1)
  fetch("/topk" topk)
  if(topk MATCHES "\"generation\": [1-9]" AND topk MATCHES "\"group\": ")
    break()
  endif()
  if(waited GREATER 300)
    finish()
    message(FATAL_ERROR "query_probe: /topk never served a populated "
      "generation:\n${topk}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  math(EXPR waited "${waited} + 1")
endwhile()

if(MODE STREQUAL "final")
  # End-state equality: the served top-1 must be the collector's own final
  # answer, bit for bit (same group, same estimate).
  if(NOT topk MATCHES "\"group\": \"${EXPECT_GROUP}\", \"estimate\": ${EXPECT_ESTIMATE}[^0-9]")
    finish()
    message(FATAL_ERROR "query_probe: final /topk does not carry the "
      "collector's answer dest=${EXPECT_GROUP} freq=${EXPECT_ESTIMATE}:\n"
      "${topk}")
  endif()
  fetch("/generations" generations)
  if(NOT generations MATCHES "\"generation\": [1-9]")
    finish()
    message(FATAL_ERROR "query_probe: /generations empty after restart:\n"
      "${generations}")
  endif()
  finish()
  message(STATUS "query_probe: final top-1 matches the collector bit-for-bit")
  return()
endif()

# --- live route sweep -------------------------------------------------------

fetch("/topk?k=3" topk3)
if(NOT topk3 MATCHES "\"k\": 3")
  finish()
  message(FATAL_ERROR "query_probe: /topk?k=3 malformed:\n${topk3}")
endif()

fetch("/frequency?key=1" frequency)
foreach(needle "\"key\": \"00000001\"" "\"estimate\": ")
  if(NOT frequency MATCHES "${needle}")
    finish()
    message(FATAL_ERROR "query_probe: /frequency missing '${needle}':\n"
      "${frequency}")
  endif()
endforeach()

fetch("/distinct_pairs" pairs)
if(NOT pairs MATCHES "\"distinct_pairs\": [0-9]+")
  finish()
  message(FATAL_ERROR "query_probe: /distinct_pairs malformed:\n${pairs}")
endif()

fetch("/alerts" alerts)
if(NOT alerts MATCHES "\"active_alarms\": [0-9]+" OR NOT alerts MATCHES "\"alerts\": ")
  finish()
  message(FATAL_ERROR "query_probe: /alerts malformed:\n${alerts}")
endif()

fetch("/sites" sites)
if(NOT sites MATCHES "\"site_id\": 9[^0-9]" OR NOT sites MATCHES "\"last_epoch\": ")
  finish()
  message(FATAL_ERROR "query_probe: /sites missing the live site:\n${sites}")
endif()

fetch("/generations" generations)
if(NOT generations MATCHES "\"generation\": 1[^0-9]")
  finish()
  message(FATAL_ERROR "query_probe: /generations missing generation 1:\n"
    "${generations}")
endif()

fetch("/healthz" healthz)
foreach(needle "\"status\": \"ok\"" "\"staleness_ms\": " "\"loaded_generations\": ")
  if(NOT healthz MATCHES "${needle}")
    finish()
    message(FATAL_ERROR "query_probe: /healthz missing '${needle}':\n"
      "${healthz}")
  endif()
endforeach()

fetch("/metrics" metrics)
foreach(needle "dcs_query_reloads_total [1-9]" "dcs_query_requests_total [1-9]"
        "dcs_query_loaded_generations [1-9]")
  if(NOT metrics MATCHES "${needle}")
    finish()
    message(FATAL_ERROR "query_probe: /metrics missing '${needle}':\n"
      "${metrics}")
  endif()
endforeach()

# Time travel: generation 1 stays addressable while newer ones land, and an
# absurd generation is an honest 404 body.
fetch("/topk?generation=1" time_travel)
if(NOT time_travel MATCHES "\"generation\": 1[^0-9]")
  finish()
  message(FATAL_ERROR "query_probe: ?generation=1 not served:\n${time_travel}")
endif()
fetch("/topk?generation=999999" pruned)
if(NOT pruned MATCHES "not retained")
  finish()
  message(FATAL_ERROR "query_probe: unretained generation not a 404:\n"
    "${pruned}")
endif()

# Cache contract over HTTP: identical request, identical bytes.
fetch("/topk?generation=1" time_travel_again)
if(NOT time_travel STREQUAL time_travel_again)
  finish()
  message(FATAL_ERROR "query_probe: repeated request returned different "
    "bytes:\n--- first:\n${time_travel}\n--- second:\n${time_travel_again}")
endif()

finish()
# To stderr: in the live pipeline this probe's stdout feeds the collector's
# stdin, and the collector may already have exited once its agent said Bye
# (a write there would kill the probe with SIGPIPE).
message(NOTICE "query_probe: live sweep OK (all routes, time travel, cache)")
