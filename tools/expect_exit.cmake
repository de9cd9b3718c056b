# Runs the command given after `--` and fails unless it exits with
# EXIT_CODE and its stderr matches STDERR_REGEX:
#
#   cmake -DEXIT_CODE=2 -DSTDERR_REGEX=<re> -P expect_exit.cmake -- <cmd> <args>
#
# ctest alone can match output or invert success, but cannot tell a usage
# error (exit 2) from a failed run (exit 1) or an abort.
set(command "")
set(after_separator FALSE)
foreach(i RANGE ${CMAKE_ARGC})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "expected exit ${EXIT_CODE}, got '${code}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
