# Runs graphite_server with one flag value and checks how it exits. The
# server serves stdin (--stdio) unless the flag under test is --port.
#
#   cmake -DSERVER=<graphite_server> -DFLAG=--threads -DVALUE=0
#         [-DBEFORE=<flag>=<value>] [-DMESSAGE=<text>]
#         -DINPUT=<requests.jsonl> -DEXPECT=reject|accept -P server_flags.cmake
#
# BEFORE passes one more flag ahead of the one under test (a first
# --preload, to test a repeated name); a reject with MESSAGE must also
# print that text on stderr.
# reject: the server must exit with status 2 before serving, with a
#         "bad value for <flag>" message on stderr.
# accept: the server must answer INPUT's requests and exit with status 0.
set(serve --stdio)
if(FLAG STREQUAL "--port")
  set(serve)
endif()
set(before)
if(DEFINED BEFORE)
  string(FIND "${BEFORE}" "=" eq)
  string(SUBSTRING "${BEFORE}" 0 ${eq} before_flag)
  math(EXPR value_at "${eq} + 1")
  string(SUBSTRING "${BEFORE}" ${value_at} -1 before_value)
  set(before ${before_flag} ${before_value})
endif()
execute_process(
  COMMAND ${SERVER} ${serve} ${before} ${FLAG} "${VALUE}"
  INPUT_FILE ${INPUT}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 20)

if(EXPECT STREQUAL "reject")
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${FLAG} '${VALUE}': want exit 2, got '${status}'\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "bad value for ${FLAG}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not name the flag: "
                        "${err}")
  endif()
  if(DEFINED MESSAGE)
    string(FIND "${err}" "${MESSAGE}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${FLAG} '${VALUE}': stderr lacks '${MESSAGE}': "
                          "${err}")
    endif()
  endif()
else()
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${FLAG} '${VALUE}': want exit 0, got '${status}'\n"
                        "stderr: ${err}")
  endif()
  string(FIND "${out}" "\"ok\": true" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} '${VALUE}': no answer: ${out}")
  endif()
endif()
