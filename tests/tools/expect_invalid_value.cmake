# Runs `CMD FLAG VALUE` and fails unless the tool rejects the value with
# exit status 2 and MESSAGE on stderr.
#
#   cmake -DCMD=<tool> -DFLAG=<flag> "-DVALUE=<value>" "-DMESSAGE=<text>"
#         -P expect_invalid_value.cmake
execute_process(
  COMMAND ${CMD} ${FLAG} "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}' exited with ${rc}, "
                      "expected 2")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}': no '${MESSAGE}' "
                      "message on stderr:\n${err}")
endif()
