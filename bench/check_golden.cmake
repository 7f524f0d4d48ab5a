# Regenerates a committed BENCH_*.json and fails unless the fresh output
# equals the committed file byte for byte, so the file cannot go stale.
#   cmake -DBENCH=<bench binary> -DOUT=<fresh json> -DGOLDEN=<committed json>
#         -P check_golden.cmake
execute_process(COMMAND ${BENCH} --out=${OUT}
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${GOLDEN}: the "
    "code no longer produces its numbers. If that is intended, regenerate "
    "the committed file.")
endif()
message(STATUS "${GOLDEN} matches the regenerated series")
