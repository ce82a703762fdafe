/**
 * @file
 * Status/error reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (bugs in Herald itself);
 * fatal() is for user errors (bad configuration, illegal mappings the
 * user constructed by hand); warn()/inform() never stop execution.
 */

#pragma once

#include <sstream>
#include <string>

namespace herald::util
{

/** Severity of a log message. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

/**
 * Emit a message at the given severity. Fatal and Panic throw
 * std::runtime_error / std::logic_error respectively so that library
 * users (and tests) can recover; standalone tools let them propagate.
 */
void logMessage(LogLevel level, const std::string &msg);

/** Enable/disable Inform-level output (benches silence it). */
void setVerbose(bool verbose);

/** Whether Inform-level output is currently enabled. */
bool verbose();

/** Every argument streamed into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Report an internal invariant violation; throws std::logic_error. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    logMessage(LogLevel::Panic, concat(std::forward<Args>(args)...));
    throw std::logic_error("unreachable");
}

/** Report an unrecoverable user error; throws std::runtime_error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    logMessage(LogLevel::Fatal, concat(std::forward<Args>(args)...));
    throw std::runtime_error("unreachable");
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    logMessage(LogLevel::Warn, concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    logMessage(LogLevel::Inform, concat(std::forward<Args>(args)...));
}

} // namespace herald::util

