#include "serve/model_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace mcsm::serve {

namespace fs = std::filesystem;

namespace {

// Unique same-process temp name next to `path`; concurrent writers of the
// same key each publish a complete file and the last rename wins.
std::string temp_name(const std::string& path) {
    static std::atomic<unsigned> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter++);
}

[[noreturn]] void fail_errno(const std::string& what) {
    throw ModelError("model_store: " + what + " (" +
                     std::strerror(errno) + ")");
}

// write(2) the whole buffer, riding out short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_errno("write failed for " + path);
        }
        done += static_cast<std::size_t>(n);
    }
}

// Opens, fully writes, fsyncs and closes a fresh temp file. Throws with
// the temp removed on any failure.
void write_temp_durably(const std::string& tmp, const std::string& bytes) {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                          0644);
    if (fd < 0) fail_errno("cannot open " + tmp);
    try {
        write_all(fd, bytes.data(), bytes.size(), tmp);
        // fsync BEFORE rename: rename is a metadata operation that can be
        // journaled ahead of the data blocks, so without this a crash
        // after publication could surface an empty/truncated file under
        // the final name -- the exact outage the atomic write exists to
        // prevent.
        if (::fsync(fd) != 0) fail_errno("fsync failed for " + tmp);
        if (::close(fd) != 0) fail_errno("close failed for " + tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
}

// fsync the directory containing `path`, so the rename itself (a directory
// entry update) is on disk before the writer reports success.
void fsync_parent_dir(const std::string& path) {
    const fs::path parent = fs::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) fail_errno("cannot open directory " + dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) fail_errno("fsync failed for directory " + dir);
}

}  // namespace

void durable_replace_file(const std::string& tmp, const std::string& path) {
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (errno != EXDEV) {
            const int saved = errno;
            ::unlink(tmp.c_str());
            errno = saved;
            fail_errno("rename failed for " + path);
        }
        // Temp on a different filesystem (e.g. a tmpfs staging dir):
        // rename(2) cannot cross the boundary, so re-stage the bytes in a
        // same-directory temp and publish that one atomically instead.
        std::string bytes;
        {
            std::ifstream is(tmp, std::ios::binary);
            std::ostringstream copy;
            copy << is.rdbuf();
            if (!is.good() && !is.eof()) {
                ::unlink(tmp.c_str());
                throw ModelError("model_store: cannot re-read " + tmp +
                                 " for cross-filesystem publish");
            }
            bytes = std::move(copy).str();
        }
        ::unlink(tmp.c_str());
        const std::string local = temp_name(path);
        write_temp_durably(local, bytes);
        if (::rename(local.c_str(), path.c_str()) != 0) {
            const int saved = errno;
            ::unlink(local.c_str());
            errno = saved;
            fail_errno("rename failed for " + path);
        }
        fsync_parent_dir(path);
        return;
    }
    fsync_parent_dir(path);
}

void save_bytes_atomically(const std::string& path,
                           const std::string& bytes) {
    const std::string tmp = temp_name(path);
    write_temp_durably(tmp, bytes);
    durable_replace_file(tmp, path);
}

std::size_t clean_orphan_temps(const std::string& dir, long min_age_s) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return 0;
    const auto now = std::chrono::file_clock::now();
    std::size_t removed = 0;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir, ec)) {
        if (ec) break;
        std::error_code entry_ec;
        if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos) continue;
        const auto mtime = fs::last_write_time(entry.path(), entry_ec);
        if (entry_ec) continue;
        const auto age =
            std::chrono::duration_cast<std::chrono::seconds>(now - mtime);
        if (age.count() < min_age_s) continue;
        if (fs::remove(entry.path(), entry_ec) && !entry_ec) ++removed;
    }
    return removed;
}

}  // namespace mcsm::serve
