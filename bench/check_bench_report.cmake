# Runs one simulated bench and checks its report against the committed copy:
#
#   cmake -DBENCH=<binary> -DREPORT=<fresh json> -DCOMMITTED=<committed json> \
#         -P check_bench_report.cmake
#
# with GEMINI_BENCH_OUT_DIR set to REPORT's directory. Fails when the bench
# exits non-zero (a failed shape check) or the two reports differ in any byte.
file(REMOVE ${REPORT})
execute_process(COMMAND ${BENCH} RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${REPORT} ${COMMITTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${REPORT} differs from the committed ${COMMITTED}")
endif()
