# Runs `CMD ARGS...` and byte-compares its stdout with a committed golden
# file.  ARGS is one space-separated string (empty for none).
#
#   cmake -DCMD=<tool> "-DARGS=<args>" -DGOLDEN=<file> -DOUT=<file>
#         -P golden.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
get_filename_component(_tool ${CMD} NAME)
execute_process(
  COMMAND ${CMD} ${_args}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${_tool} ${ARGS} exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${_tool} ${ARGS} no longer matches ${GOLDEN} "
                      "(output kept in ${OUT}); a change to simulated "
                      "results must say why and re-capture the golden")
endif()
