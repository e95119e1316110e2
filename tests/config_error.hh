/**
 * @file
 * EXPECT_CONFIG_ERROR(statement, text): the statement throws
 * rvp::ConfigError (common/parse.hh) and its message contains text.
 * Invalid input is a typed error, not an abort, so what used to be a
 * death test on an RVP_ASSERT message is this check on the same text.
 */

#ifndef RVP_TESTS_CONFIG_ERROR_HH
#define RVP_TESTS_CONFIG_ERROR_HH

#include <gtest/gtest.h>

#include <string>

#include "common/parse.hh"

#define EXPECT_CONFIG_ERROR(statement, text)                                \
    EXPECT_THROW(                                                           \
        try { statement; } catch (const ::rvp::ConfigError &e) {            \
            EXPECT_NE(std::string(e.what()).find(text),                     \
                      std::string::npos)                                    \
                << e.what();                                                \
            throw;                                                          \
        },                                                                  \
        ::rvp::ConfigError)

#endif // RVP_TESTS_CONFIG_ERROR_HH
