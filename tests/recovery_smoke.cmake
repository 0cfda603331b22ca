# Kill-and-restart smoke test for the collector durability layer.
#
# Two pipelines over real processes on 127.0.0.1:
#
#   1. Reference: 4 dcs_agent + 1 dcs_collector (no durability), uninterrupted.
#   2. Crash run: the same 4 agents against a collector *supervisor* — this
#      script re-entered with -DMODE=supervise — which starts a durable
#      collector with --crash-after-deltas (the process SIGKILLs itself mid
#      stream: no flush, no destructors), verifies it died, then restarts it
#      on the same port with the same --state-dir. The agents ride out the
#      outage on their spools and reconnect.
#
# Oracle: the recovered run's final per-site accounting and top-k listing —
# groups *and* frequency estimates — must equal the uninterrupted
# reference's exactly. Sketch linearity makes recovery bit-identical, so
# equality is asserted, not approximated; any double-merged or lost epoch
# shows up as a deltas/updates/top-k mismatch.
#
# Invoked by ctest (see CMakeLists.txt).

set(agent_args --u 6000 --d 80 --epoch-updates 250 --drain-ms 90000)
set(collector_sites --sites 4 --timeout-ms 90000)

if(MODE STREQUAL "supervise")
  # --- phase 1: durable collector, fault injection armed ---------------------
  execute_process(
    COMMAND ${DCS_COLLECTOR} --port-file ${WORK_DIR}/collector.port
            ${collector_sites} --state-dir ${WORK_DIR}/state
            --checkpoint-every 7 --crash-after-deltas 10
    OUTPUT_VARIABLE phase1_out
    ERROR_VARIABLE phase1_err
    RESULT_VARIABLE phase1_result
    TIMEOUT 120)
  if(phase1_result EQUAL 0)
    message(FATAL_ERROR "recovery_smoke: collector was told to crash after "
      "10 deltas but exited cleanly:\n${phase1_out}\n${phase1_err}")
  endif()
  file(WRITE ${WORK_DIR}/phase1.out "${phase1_out}\n${phase1_err}\n")

  if(NOT EXISTS ${WORK_DIR}/state)
    message(FATAL_ERROR "recovery_smoke: no state directory survived the "
      "crash")
  endif()
  file(READ ${WORK_DIR}/collector.port port)
  string(STRIP "${port}" port)

  # --- phase 2: restart on the same port, same state directory ---------------
  execute_process(
    COMMAND ${DCS_COLLECTOR} --port ${port} ${collector_sites}
            --state-dir ${WORK_DIR}/state --checkpoint-every 7
            --metrics-out ${WORK_DIR}/metrics.prom
    OUTPUT_VARIABLE phase2_out
    ERROR_VARIABLE phase2_err
    RESULT_VARIABLE phase2_result
    TIMEOUT 120)
  file(WRITE ${WORK_DIR}/recovered.out "${phase2_out}")
  if(NOT phase2_result EQUAL 0)
    message(FATAL_ERROR "recovery_smoke: restarted collector failed "
      "(${phase2_result}):\n${phase2_out}\n${phase2_err}")
  endif()
  if(NOT phase2_out MATCHES "recovered generation=")
    message(FATAL_ERROR "recovery_smoke: restarted collector did not report "
      "a recovery:\n${phase2_out}")
  endif()
  return()
endif()

# --- main mode ---------------------------------------------------------------
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Reference run: same deterministic workloads (wseed defaults to the site
# id), no durability, no crash.
execute_process(
  COMMAND ${DCS_AGENT} --site 1 --port-file ${WORK_DIR}/ref.port ${agent_args}
  COMMAND ${DCS_AGENT} --site 2 --port-file ${WORK_DIR}/ref.port ${agent_args}
  COMMAND ${DCS_AGENT} --site 3 --port-file ${WORK_DIR}/ref.port ${agent_args}
  COMMAND ${DCS_AGENT} --site 4 --port-file ${WORK_DIR}/ref.port ${agent_args}
  COMMAND ${DCS_COLLECTOR} --port-file ${WORK_DIR}/ref.port ${collector_sites}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE reference_out
  ERROR_VARIABLE reference_err
  RESULTS_VARIABLE reference_statuses
  TIMEOUT 150)
foreach(status ${reference_statuses})
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "recovery_smoke: reference run failed "
      "(${reference_statuses}):\n${reference_out}\n${reference_err}")
  endif()
endforeach()

# Crash run: agents + supervisor concurrently. The supervisor (listed last)
# owns the collector lifecycle: crash, verify, restart.
execute_process(
  COMMAND ${DCS_AGENT} --site 1 --port-file ${WORK_DIR}/collector.port
          ${agent_args}
  COMMAND ${DCS_AGENT} --site 2 --port-file ${WORK_DIR}/collector.port
          ${agent_args}
  COMMAND ${DCS_AGENT} --site 3 --port-file ${WORK_DIR}/collector.port
          ${agent_args}
  COMMAND ${DCS_AGENT} --site 4 --port-file ${WORK_DIR}/collector.port
          ${agent_args}
  COMMAND ${CMAKE_COMMAND} -DMODE=supervise -DDCS_COLLECTOR=${DCS_COLLECTOR}
          -DWORK_DIR=${WORK_DIR} -P ${CMAKE_CURRENT_LIST_FILE}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE crash_out
  ERROR_VARIABLE crash_err
  RESULTS_VARIABLE crash_statuses
  TIMEOUT 300)
foreach(status ${crash_statuses})
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "recovery_smoke: crash run failed "
      "(${crash_statuses}):\n${crash_out}\n${crash_err}")
  endif()
endforeach()

file(READ ${WORK_DIR}/recovered.out recovered_out)

# Every epoch from every site must be merged exactly once across the crash:
# 4 sites x 24 epochs, 6000 updates each, nothing dropped. A double merge
# would inflate deltas/epochs/updates; a lost epoch would deflate them.
foreach(needle
    "byes=4 deltas=96 "
    "site=1 epochs=24 updates=6000 dropped=0 last_epoch=24"
    "site=2 epochs=24 updates=6000 dropped=0 last_epoch=24"
    "site=3 epochs=24 updates=6000 dropped=0 last_epoch=24"
    "site=4 epochs=24 updates=6000 dropped=0 last_epoch=24")
  if(NOT recovered_out MATCHES "${needle}")
    message(FATAL_ERROR "recovery_smoke: recovered collector output missing "
      "'${needle}':\n${recovered_out}")
  endif()
endforeach()

# The recovered top-k listing must equal the uninterrupted reference's,
# estimates included.
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
       reference_topk "${reference_out}")
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
       recovered_topk "${recovered_out}")
if(reference_topk STREQUAL "")
  message(FATAL_ERROR "recovery_smoke: reference run produced no top-k "
    "lines:\n${reference_out}")
endif()
if(NOT recovered_topk STREQUAL reference_topk)
  message(FATAL_ERROR "recovery_smoke: recovered top-k differs from the "
    "uninterrupted reference.\nreference: ${reference_topk}\n"
    "recovered: ${recovered_topk}")
endif()

# The dedup oracle: re-deliveries after the restart may happen (acks lost in
# the crash) but every one must be *deduped*, and the metric must exist in
# the exported snapshot, labelled by the recovered collector's address.
set(collector_label "[{]collector=\"127.0.0.1:[0-9]+\"[}]")
file(READ ${WORK_DIR}/metrics.prom prom_text)
if(NOT prom_text MATCHES
   "dcs_checkpoint_post_recovery_duplicates_total${collector_label} [0-9]+")
  message(FATAL_ERROR "recovery_smoke: metrics.prom missing the "
    "post-recovery dedup counter:\n${prom_text}")
endif()
if(NOT prom_text MATCHES "dcs_checkpoint_recoveries_total${collector_label} 1")
  message(FATAL_ERROR "recovery_smoke: metrics.prom did not record the "
    "recovery:\n${prom_text}")
endif()

message(STATUS "recovery_smoke: SIGKILL mid-stream, recovered top-k equals "
  "uninterrupted reference")
