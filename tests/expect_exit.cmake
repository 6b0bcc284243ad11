# Runs PROG with ARGS (one space-separated string) and fails unless it exits
# with EXPECT_CODE and its stderr matches the regex EXPECT_STDERR; when
# EXPECT_STDOUT is set, its stdout must match that regex too.
#
#   cmake -DPROG=path "-DARGS=--sms abc" -DEXPECT_CODE=2
#         "-DEXPECT_STDERR=invalid value" [-DEXPECT_STDOUT=regex] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "'${ARGS}' exited with ${code}, expected ${EXPECT_CODE}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "'${ARGS}' stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "'${ARGS}' stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
