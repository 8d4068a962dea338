# Runs hexfloat_probe at one scale and byte-compares its output with a
# committed golden file.
#
#   cmake -DPROBE=<hexfloat_probe> -DPROCS=N -DSCALE=F -DGOLDEN=<file>
#         -DOUT=<file> -P probe_golden.cmake
execute_process(
  COMMAND ${PROBE} --procs ${PROCS} --scale ${SCALE}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hexfloat_probe --procs ${PROCS} --scale ${SCALE} "
                      "exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "hexfloat_probe --procs ${PROCS} --scale ${SCALE} "
                      "no longer matches ${GOLDEN} (output kept in ${OUT}); "
                      "a change to simulated results must say why and "
                      "re-capture the golden")
endif()
