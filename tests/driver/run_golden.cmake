# Runs one scheme-on History cell through `dasched_run --hexfloat` and
# byte-compares its line with a committed golden file.
#
#   cmake -DRUN=<dasched_run> -DAPP=<app> -DNODES=N -DPROCS=N -DSCALE=F
#         -DGOLDEN=<file> -DOUT=<file> -P run_golden.cmake
set(_args --hexfloat --app ${APP} --scheme --policy history
          --nodes ${NODES} --procs ${PROCS} --scale ${SCALE})
execute_process(
  COMMAND ${RUN} ${_args}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dasched_run ${_args} exited with ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "dasched_run ${_args} no longer matches ${GOLDEN} "
                      "(output kept in ${OUT}); a change to simulated "
                      "results must say why and re-capture the golden")
endif()
