# Runs one graphite CLI command and checks how it exits.
#
#   cmake -DCLI=<graphite> -DARGS=run|--workers|0 -DGRAPH=<graph.tg>
#         -DEXPECT=reject|accept -P cli_flags.cmake
#
# ARGS is the command line after the binary with '|' between arguments;
# GRAPH, when given, is appended as the graph-file argument.
# reject: the CLI must exit with status 1 (its user-error code, not an
#         abort) with an "error:" message on stderr.
# accept: the CLI must exit with status 0.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND ${CLI} ${args} ${GRAPH}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)

if(EXPECT STREQUAL "reject")
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "'${ARGS}': want exit 1, got '${status}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "error:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': no error message on stderr: ${err}")
  endif()
else()
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "'${ARGS}': want exit 0, got '${status}'\n"
                        "stderr: ${err}")
  endif()
endif()
