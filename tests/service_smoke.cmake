# Loopback smoke test for the sketch-shipping tools: four dcs_agent
# processes and one dcs_collector started concurrently, coordinated through
# --port-file (the collector binds an ephemeral port and publishes it).
# Invoked by ctest (see CMakeLists.txt).
#
# execute_process runs its COMMANDs as one concurrent pipeline; the
# collector is listed last so OUTPUT_VARIABLE captures *its* stdout, and
# RESULTS_VARIABLE yields every process's exit status.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(port_file ${WORK_DIR}/collector.port)

set(agent_args --port-file ${port_file} --u 4000 --d 50 --epoch-updates 1000)
execute_process(
  COMMAND ${DCS_AGENT} --site 1 ${agent_args}
  COMMAND ${DCS_AGENT} --site 2 ${agent_args}
  COMMAND ${DCS_AGENT} --site 3 ${agent_args}
  COMMAND ${DCS_AGENT} --site 4 ${agent_args}
  COMMAND ${DCS_COLLECTOR} --port-file ${port_file} --sites 4
          --timeout-ms 60000 --metrics-out ${WORK_DIR}/metrics.prom
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE collector_out
  ERROR_VARIABLE err_out
  RESULTS_VARIABLE statuses
  TIMEOUT 90)

foreach(status ${statuses})
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "service_smoke: a process failed (${statuses}):\n"
      "${collector_out}\n${err_out}")
  endif()
endforeach()

# All four sites must have said Bye, every delta merged exactly once, and
# no frame or epoch ever lost on a healthy loopback. Duplicates are allowed
# (not asserted zero): under sanitizer slowdowns an agent can hit its ack
# deadline and retransmit — dedup is exactly what deltas=16 then proves.
foreach(needle
    "byes=4 deltas=16 duplicates=[0-9]+ dropped=0 frame_errors=0 rejected=0"
    "site=1 epochs=4 updates=4000 dropped=0 last_epoch=4"
    "site=4 epochs=4 updates=4000 dropped=0 last_epoch=4"
    " 1  dest=")
  if(NOT collector_out MATCHES "${needle}")
    message(FATAL_ERROR "service_smoke: collector output missing "
      "'${needle}':\n${collector_out}\n${err_out}")
  endif()
endforeach()

# The collector's metric snapshot must carry the service counters, labelled
# by the collector's bound address.
file(READ ${WORK_DIR}/metrics.prom prom_text)
foreach(needle
    "dcs_collector_deltas_total[{]collector=\"127.0.0.1:[0-9]+\"[}] 16"
    "dcs_collector_frame_errors_total[{]collector=\"127.0.0.1:[0-9]+\"[}] 0"
    "# TYPE dcs_collector_merge_latency_ns histogram")
  if(NOT prom_text MATCHES "${needle}")
    message(FATAL_ERROR "service_smoke: metrics.prom missing "
      "'${needle}':\n${prom_text}")
  endif()
endforeach()

message(STATUS "service_smoke: 4 agents, 16 deltas, clean merge")

# --- Phase 2: live ops-plane scrape -------------------------------------------
# A fresh collector with the embedded HTTP ops server ingests one agent's
# ~98 epochs while ops_probe.cmake — the third member of the concurrent
# pipeline — curls /healthz, /metrics, /sites and /traces and asserts on
# what a live scrape must show (all stage histogram families, a nonzero
# freshness count, at least one complete epoch trace). The collector waits
# for a second site, which the probe starts only after its last check, so
# it serves the whole scrape however fast the first agent finishes. The
# periodic --metrics-every flush is on so the probe's success also implies
# the scrape-less fallback ran.
set(ops_port_file ${WORK_DIR}/ops.port)
set(live_port_file ${WORK_DIR}/live_collector.port)
execute_process(
  COMMAND ${DCS_AGENT} --site 9 --port-file ${live_port_file}
          --u 200000 --d 50 --epoch-updates 2048
  COMMAND ${DCS_COLLECTOR} --port-file ${live_port_file} --sites 2
          --timeout-ms 60000 --ops-port 0 --ops-port-file ${ops_port_file}
          --metrics-out ${WORK_DIR}/live_metrics.prom --metrics-every 1
  COMMAND ${CMAKE_COMMAND} -DOPS_PORT_FILE=${ops_port_file}
          -DOUT_DIR=${WORK_DIR} -DDCS_AGENT=${DCS_AGENT}
          -DCOLLECTOR_PORT_FILE=${live_port_file}
          -P ${CMAKE_CURRENT_LIST_DIR}/ops_probe.cmake
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE live_out
  ERROR_VARIABLE live_err
  RESULTS_VARIABLE live_statuses
  TIMEOUT 90)

foreach(status ${live_statuses})
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "service_smoke: live ops phase failed "
      "(${live_statuses}):\n${live_out}\n${live_err}")
  endif()
endforeach()

# The periodic flusher must have left a readable snapshot behind even
# before the clean-exit write (same path, so just assert it parses).
file(READ ${WORK_DIR}/live_metrics.prom live_prom)
if(NOT live_prom MATCHES "dcs_detection_freshness_ns_count [1-9]")
  message(FATAL_ERROR "service_smoke: live_metrics.prom missing freshness "
    "counts:\n${live_prom}")
endif()

message(STATUS "service_smoke: live ops plane scraped")
