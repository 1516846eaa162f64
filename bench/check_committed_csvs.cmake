# Regenerate the committed result CSVs and compare them byte for byte.
#
#   cmake -DBIN_DIR=<dir with the programs> -DPROGRAMS=<a,b,...>
#         -DSRC_DIR=<repo root> -DWORK_DIR=<scratch dir> -P check_committed_csvs.cmake
#
# Every program runs with default arguments in WORK_DIR (they write their CSVs
# into the working directory); every CSV at the repo root must then be
# reproduced exactly, and no program may write a CSV that is not committed.
cmake_minimum_required(VERSION 3.16)

foreach(var BIN_DIR PROGRAMS SRC_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_committed_csvs: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" programs "${PROGRAMS}")
foreach(program IN LISTS programs)
  execute_process(COMMAND "${BIN_DIR}/${program}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${program} failed (${rc}): ${err}")
  endif()
endforeach()

file(GLOB committed RELATIVE "${SRC_DIR}" "${SRC_DIR}/*.csv")
file(GLOB produced RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.csv")
list(LENGTH committed n_committed)
if(n_committed EQUAL 0)
  message(FATAL_ERROR "no committed CSVs found under ${SRC_DIR}")
endif()
set(failed "")
foreach(csv IN LISTS committed)
  if(NOT EXISTS "${WORK_DIR}/${csv}")
    list(APPEND failed "${csv} (not produced)")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${SRC_DIR}/${csv}" "${WORK_DIR}/${csv}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND failed "${csv} (differs)")
  endif()
endforeach()
foreach(csv IN LISTS produced)
  if(NOT csv IN_LIST committed)
    list(APPEND failed "${csv} (not committed)")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "committed CSVs not reproduced: ${failed}")
endif()
message(STATUS "${n_committed} committed CSVs reproduced byte for byte")
