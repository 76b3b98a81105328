#include "common/subprocess.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

extern char** environ;

namespace agl::common {

agl::Result<pid_t> Spawn(const std::vector<std::string>& argv,
                         const std::vector<std::string>& extra_env) {
  if (argv.empty()) {
    return agl::Status::InvalidArgument("Spawn: empty argv");
  }
  AGL_RETURN_IF_ERROR(fail::MaybeFail("driver.spawn"));

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);

  // Inherited environment with extra_env appended: later entries win in
  // getenv(), so appending overrides without editing in place.
  std::vector<char*> cenv;
  for (char** e = environ; *e != nullptr; ++e) cenv.push_back(*e);
  for (const std::string& e : extra_env) {
    cenv.push_back(const_cast<char*>(e.c_str()));
  }
  cenv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return agl::Status::ResourceExhausted(
        std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execve(cargv[0], cargv.data(), cenv.data());
    // Reached only when exec failed; _exit avoids running the parent's
    // atexit handlers from the forked image.
    ::_exit(127);
  }
  return pid;
}

agl::Status AwaitExit(pid_t pid) {
  siginfo_t info;
  std::memset(&info, 0, sizeof(info));
  for (;;) {
    if (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) ==
        0) {
      return agl::Status::OK();
    }
    if (errno == EINTR) continue;
    return agl::Status::Internal(std::string("waitid: ") +
                                 std::strerror(errno));
  }
}

agl::Result<ExitStatus> Wait(pid_t pid) {
  int wstatus = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &wstatus, 0);
    if (r == pid) break;
    if (r < 0 && errno == EINTR) continue;
    return agl::Status::Internal(std::string("waitpid: ") +
                                 std::strerror(errno));
  }
  ExitStatus exit;
  if (WIFSIGNALED(wstatus)) {
    exit.signaled = true;
    exit.value = WTERMSIG(wstatus);
  } else if (WIFEXITED(wstatus)) {
    exit.value = WEXITSTATUS(wstatus);
  } else {
    return agl::Status::Internal("waitpid: child neither exited nor died");
  }
  return exit;
}

agl::Status Kill(pid_t pid, int sig) {
  if (::kill(pid, sig) == 0) return agl::Status::OK();
  if (errno == ESRCH) {
    return agl::Status::NotFound("process " + std::to_string(pid) +
                                 " is gone");
  }
  return agl::Status::Internal(std::string("kill: ") + std::strerror(errno));
}

bool IsAlive(pid_t pid) {
  if (pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

agl::Status ClassifyExit(const ExitStatus& exit, const std::string& what) {
  if (exit.clean()) return agl::Status::OK();
  if (exit.signaled) {
    return agl::Status::Unavailable(what + " killed by signal " +
                                    std::to_string(exit.value));
  }
  return agl::Status::Internal(what + " exited with code " +
                               std::to_string(exit.value));
}

agl::Result<std::string> SelfExecutable() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n < 0) {
    return agl::Status::IoError(std::string("readlink /proc/self/exe: ") +
                                std::strerror(errno));
  }
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace agl::common
