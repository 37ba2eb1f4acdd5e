# Command-line smoke of one driver binary, run by ctest as
#   cmake -DEXE=<driver> -DFLAGS=--a,--b [-DWORK=<dir>] -P driver_cli.cmake
# --help must exit 0 and list every flag in FLAGS, and an unknown flag must
# exit 2. With WORK set, the driver must instead exit 1 when --cache-dir
# names a path under a regular file (the store cannot be opened).

if(DEFINED WORK)
  file(MAKE_DIRECTORY "${WORK}")
  file(WRITE "${WORK}/plain-file" "")
  execute_process(COMMAND "${EXE}" --cache-dir "${WORK}/plain-file/sub"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "unopenable --cache-dir exited ${status}, not 1:\n${err}")
  endif()
  return()
endif()

execute_process(COMMAND "${EXE}" --help RESULT_VARIABLE status
                OUTPUT_VARIABLE help ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--help exited ${status}, not 0:\n${err}")
endif()
string(REPLACE "," ";" flags "${FLAGS}")
foreach(flag IN LISTS flags)
  string(FIND "${help}" "  ${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--help does not list ${flag}:\n${help}")
  endif()
endforeach()

execute_process(COMMAND "${EXE}" --no-such-flag RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "--no-such-flag exited ${status}, not 2:\n${err}")
endif()
