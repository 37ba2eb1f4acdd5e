# Determinism smoke of one driver binary, run by ctest as
#   cmake -DEXE=<driver> -DARGS=16,--engine,fibers -P driver_stdout.cmake
# Runs the driver twice with ARGS; both runs must exit 0 and print
# byte-identical stdout (wall-clock readings belong on stderr).

string(REPLACE "," ";" args "${ARGS}")
foreach(run IN ITEMS first second)
  execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out_${run} ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run} run exited ${status}, not 0:\n${err}")
  endif()
endforeach()
if(NOT out_first STREQUAL out_second)
  message(FATAL_ERROR "two runs printed different stdout:\n"
                      "--- first\n${out_first}--- second\n${out_second}")
endif()
