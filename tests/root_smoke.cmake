# Two-tier smoke test for the folded federation root: a root
# (dcs_collector --leaves 1), one leaf (dcs_collector --leaf-id 1 --root
# 127.0.0.1:PORT) and one dcs_agent, all real processes started together.
# Invoked by ctest (see CMakeLists.txt).
#
# execute_process runs its COMMANDs as one concurrent pipeline. Each runs
# under sh with its stdout sent to its own file, so every process's report
# can be read back. The leaf needs the root's ephemeral port on its command
# line, so its wrapper waits for the root's --port-file first; the agent
# finds the leaf through the leaf's --port-file.
find_program(SH sh REQUIRED)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(root_port ${WORK_DIR}/root.port)
set(leaf_port ${WORK_DIR}/leaf.port)

# sh -c SCRIPT sh OUT_FILE COMMAND...: run COMMAND with stdout in OUT_FILE.
set(redirect [[out=$1; shift; exec "$@" > "$out"]])
# sh -c SCRIPT sh OUT_FILE PORT_FILE COMMAND...: wait up to 30 s for
# PORT_FILE, then run COMMAND --root 127.0.0.1:<port> with stdout in
# OUT_FILE.
set(with_root [[
out=$1; port_file=$2; shift 2
n=0
while [ ! -s "$port_file" ]; do
  n=$((n + 1))
  if [ "$n" -gt 600 ]; then echo "no root port file" >&2; exit 3; fi
  sleep 0.05
done
exec "$@" --root "127.0.0.1:$(cat "$port_file")" > "$out"
]])

execute_process(
  COMMAND ${SH} -c "${redirect}" sh ${WORK_DIR}/root.out
          ${DCS_COLLECTOR} --leaves 1 --port-file ${root_port}
          --timeout-ms 60000 --no-detection
  COMMAND ${SH} -c "${with_root}" sh ${WORK_DIR}/leaf.out ${root_port}
          ${DCS_COLLECTOR} --leaf-id 1 --sites 1 --port-file ${leaf_port}
          --timeout-ms 60000 --no-detection
  COMMAND ${SH} -c "${redirect}" sh ${WORK_DIR}/agent.out
          ${DCS_AGENT} --site 1 --port-file ${leaf_port} --u 4000 --d 50
          --epoch-updates 1000
  WORKING_DIRECTORY ${WORK_DIR}
  ERROR_VARIABLE err_out
  RESULTS_VARIABLE statuses
  TIMEOUT 90)

file(READ ${WORK_DIR}/root.out root_out)
file(READ ${WORK_DIR}/leaf.out leaf_out)
file(READ ${WORK_DIR}/agent.out agent_out)
set(all_out "root:\n${root_out}\nleaf:\n${leaf_out}\nagent:\n${agent_out}\n"
            "stderr:\n${err_out}")

foreach(status ${statuses})
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "root_smoke: a process failed (${statuses}):\n"
      "${all_out}")
  endif()
endforeach()

# The root relayed exactly the epochs the agent sealed, and its gap ledger
# is empty.
if(NOT agent_out MATCHES "sealed=([0-9]+)")
  message(FATAL_ERROR "root_smoke: agent report has no sealed=:\n${all_out}")
endif()
set(sealed ${CMAKE_MATCH_1})
foreach(needle "byes=1 " "relayed=${sealed} " "pending_gaps=0 ")
  if(NOT root_out MATCHES "${needle}")
    message(FATAL_ERROR "root_smoke: root summary missing '${needle}':\n"
      "${all_out}")
  endif()
endforeach()

# By linearity the root's merged top-k is the leaf's, line for line.
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  root_entries "${root_out}")
string(REGEX MATCHALL "[0-9]+  dest=[0-9a-f]+  frequency~[0-9]+"
  leaf_entries "${leaf_out}")
if("${leaf_entries}" STREQUAL "" OR NOT root_entries STREQUAL leaf_entries)
  message(FATAL_ERROR "root_smoke: root top-k differs from the leaf's:\n"
    "${all_out}")
endif()

# A root takes its quorum from --leaves alone and is never a leaf itself.
foreach(conflict "--sites;2" "--leaf-id;2;--root;127.0.0.1:1")
  execute_process(COMMAND ${DCS_COLLECTOR} --leaves 1 ${conflict}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "root_smoke: --leaves with ${conflict} exited "
      "${status}, want 2")
  endif()
endforeach()

message(STATUS "root_smoke: ${sealed} epochs relayed leaf -> root, "
  "top-k identical")
