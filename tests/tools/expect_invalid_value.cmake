# Runs `CMD FLAG VALUE` and fails unless the tool rejects the value the way
# util/parse.h's strict parsers do: exit status 2 and an "invalid value"
# message on stderr.
#
#   cmake -DCMD=<tool> -DFLAG=<flag> "-DVALUE=<value>" -P expect_invalid_value.cmake
execute_process(
  COMMAND ${CMD} ${FLAG} "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}' exited with ${rc}, "
                      "expected 2")
endif()
if(NOT err MATCHES "invalid value")
  message(FATAL_ERROR "${CMD} ${FLAG} '${VALUE}': no 'invalid value' "
                      "message on stderr:\n${err}")
endif()
