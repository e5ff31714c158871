#include "serve/mapped_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"

// The zero-parse contract hands out spans over raw file bytes as doubles;
// that is only the on-disk format (little-endian IEEE-754) on a
// little-endian host. Big-endian ports would need a decoding reader here.
static_assert(std::endian::native == std::endian::little,
              "mapped_store: the zero-parse pack requires a little-endian "
              "host");

namespace mcsm::serve {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kPageSize = 4096;
// Header field block right after the 8-byte magic.
constexpr std::uint64_t kHeaderFields = 4 + 4 + 8 * 6;
constexpr std::uint64_t kHeaderBytes = sizeof(kPackMagic) + kHeaderFields;
// 24 distinct models/surfaces serve the whole demo library; a corrupt
// count must fail before any allocation, so cap generously.
constexpr std::uint64_t kMaxEntries = 1u << 20;
constexpr std::uint32_t kDirRecordBytes = 4 + 4 + 8 * 4;

std::uint64_t fnv1a_bytes(const unsigned char* data, std::uint64_t size) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t page_align(std::uint64_t off) {
    return (off + kPageSize - 1) & ~(kPageSize - 1);
}

// --- little-endian append helpers (writer side) --------------------------

void put_u32(std::string& buf, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& buf, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& buf, double v) {
    put_u64(buf, std::bit_cast<std::uint64_t>(v));
}

// Length-prefixed string padded to 8 bytes, so every subsequent double
// stays naturally aligned.
void put_padded_str(std::string& buf, std::string_view s) {
    put_u64(buf, s.size());
    buf.append(s);
    while (buf.size() % 8 != 0) buf.push_back('\0');
}

// Count, then the doubles' bytes as they sit in memory (the host is
// little-endian, see the static_assert above).
void put_f64_array(std::string& buf, std::span<const double> v) {
    put_u64(buf, v.size());
    buf.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
}

void put_table(std::string& buf, const lut::NdTable& table) {
    put_padded_str(buf, table.name());
    put_u64(buf, table.rank());
    for (const lut::Axis& ax : table.axes()) {
        put_padded_str(buf, ax.name());
        put_f64_array(buf, ax.knots());
    }
    put_f64_array(buf, table.values());
}

// --- bounds-checked cursor over the mapped bytes (map-time validation) ---

class MapCursor {
public:
    MapCursor(const unsigned char* base, std::uint64_t begin,
              std::uint64_t end)
        : base_(base), pos_(begin), end_(end) {}

    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        std::memcpy(&v, base_ + pos_, 8);
        pos_ += 8;
        return v;
    }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string_view padded_str() {
        const std::uint64_t n = u64();
        need(n);
        std::string_view s(reinterpret_cast<const char*>(base_ + pos_), n);
        pos_ += n;
        const std::uint64_t pad = (8 - pos_ % 8) % 8;
        need(pad);
        pos_ += pad;
        return s;
    }

    // Span of `n` doubles in place -- the zero-parse handout.
    std::span<const double> f64_span(std::uint64_t n) {
        require(n <= remaining() / 8, "mapped_store: truncated array");
        const auto* p = reinterpret_cast<const double*>(base_ + pos_);
        pos_ += n * 8;
        return {p, n};
    }

    bool exhausted() const { return pos_ == end_; }
    std::uint64_t remaining() const { return end_ - pos_; }

private:
    void need(std::uint64_t n) const {
        require(n <= remaining(), "mapped_store: truncated payload");
    }

    const unsigned char* base_;
    std::uint64_t pos_;
    std::uint64_t end_;
};

lut::TableView read_table_view(MapCursor& c) {
    const std::string_view name = c.padded_str();
    const std::uint64_t rank = c.u64();
    require(rank >= 1 && rank <= lut::TableView::kMaxRank,
            "mapped_store: implausible table rank");
    std::array<lut::TableView::AxisView, lut::TableView::kMaxRank> axes;
    for (std::uint64_t d = 0; d < rank; ++d) {
        const std::string_view axis_name = c.padded_str();
        const std::uint64_t nknots = c.u64();
        require(nknots >= 2 && nknots <= c.remaining() / 8,
                "mapped_store: implausible knot count");
        const std::span<const double> knots = c.f64_span(nknots);
        for (std::size_t i = 0; i < knots.size(); ++i)
            require(std::isfinite(knots[i]) &&
                        (i == 0 || knots[i] > knots[i - 1]),
                    "mapped_store: non-finite or non-increasing axis knots");
        axes[d] = lut::TableView::AxisView{axis_name, knots};
    }
    const std::uint64_t nvalues = c.u64();
    require(nvalues <= c.remaining() / 8,
            "mapped_store: implausible value count");
    const std::span<const double> values = c.f64_span(nvalues);
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i]))
            throw ModelError("mapped_store: table '" + std::string(name) +
                             "' value " + std::to_string(i) +
                             " is not finite (corrupt payload)");
    }
    // TableView's own constructor re-checks value_count == product of axis
    // sizes and re-validates monotonicity.
    return lut::TableView({axes.data(), rank}, values, name);
}

MappedSurface read_surface(MapCursor& c) {
    MappedSurface s;
    const std::string_view id = c.padded_str();
    s.arc_id = id;
    s.dt = c.f64();
    s.settle = c.f64();
    s.model_check = c.u64();
    require(!id.empty() && std::isfinite(s.dt) && s.dt > 0.0 &&
                std::isfinite(s.settle) && s.settle > 0.0,
            "mapped_store: implausible surface parameters");
    s.delay = read_table_view(c);
    s.slew = read_table_view(c);
    require(s.delay.rank() == s.slew.rank(),
            "mapped_store: surface delay/slew rank mismatch");
    require(c.exhausted(), "mapped_store: trailing bytes after surface");
    return s;
}

// A string list: count u64, then padded strings. The count is checked
// against the bytes left (every string carries an 8-byte length prefix)
// before anything is allocated.
std::vector<std::string_view> read_strings(MapCursor& c) {
    const std::uint64_t n = c.u64();
    require(n <= c.remaining() / 8,
            "mapped_store: implausible string count (corrupt payload)");
    std::vector<std::string_view> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(c.padded_str());
    return v;
}

// Validates a model entry with every check the model shape implies: header
// ranges, counts, finite values and monotone axes (read_table_view), and
// the table ranks CsmModel::check_consistent requires.
MappedModel read_model(MapCursor& c) {
    MappedModel m;
    const std::uint64_t kind = c.u64();
    require(kind <= static_cast<std::uint64_t>(core::ModelKind::kMcsm),
            "mapped_store: unknown model kind");
    m.kind = static_cast<core::ModelKind>(kind);
    m.vdd = c.f64();
    m.dv_margin = c.f64();
    m.temp_c = c.f64();
    require(std::isfinite(m.vdd) && m.vdd > 0.0,
            "mapped_store: vdd = " + std::to_string(m.vdd) +
                " (must be finite and > 0)");
    require(std::isfinite(m.dv_margin) && m.dv_margin >= 0.0,
            "mapped_store: dv_margin = " + std::to_string(m.dv_margin) +
                " (must be finite and >= 0)");
    require(std::isfinite(m.temp_c), "mapped_store: non-finite temp_c");
    m.cell_name = c.padded_str();
    m.pins = read_strings(c);
    m.fixed_pins = read_strings(c);
    const std::uint64_t nfixed = c.u64();
    m.fixed_values = c.f64_span(nfixed);
    m.internals = read_strings(c);
    require(m.fixed_pins.size() == m.fixed_values.size(),
            "mapped_store: fixed pin/value count mismatch");

    const std::size_t p = m.pins.size();
    const std::size_t k = m.internals.size();
    require(p >= 1, "mapped_store: model has no switching pin");
    require(m.kind == core::ModelKind::kMcsm || k == 0,
            "mapped_store: only MCSM models carry internal nodes");
    // The model's table list (core/model.h): Cin tables are 1-D, the rest
    // share rank p + k + 1. table_roles bounds p + k by the table rank
    // limit before it sizes anything from these parsed counts.
    for (const core::TableRole& role : core::table_roles(p, k)) {
        m.tables.push_back(read_table_view(c));
        const std::size_t rank =
            role.kind == core::TableRole::Kind::kInputCap ? 1 : p + k + 1;
        require(m.tables.back().rank() == rank,
                "mapped_store: model table '" +
                    std::string(m.tables.back().name()) +
                    "' has the wrong rank for its pins and internals");
    }
    require(c.exhausted(), "mapped_store: trailing bytes after model");
    return m;
}

MappedPack::FileId stat_to_id(const struct ::stat& st) {
    MappedPack::FileId id;
    id.dev = static_cast<std::uint64_t>(st.st_dev);
    id.ino = static_cast<std::uint64_t>(st.st_ino);
    id.size = static_cast<std::uint64_t>(st.st_size);
    id.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                  st.st_mtim.tv_nsec;
    return id;
}

}  // namespace

std::string encode_model(const core::CsmModel& model) {
    model.check_consistent();
    std::string buf;
    put_u64(buf, static_cast<std::uint64_t>(model.kind));
    put_f64(buf, model.vdd);
    put_f64(buf, model.dv_margin);
    put_f64(buf, model.temp_c);
    put_padded_str(buf, model.cell_name);
    const auto put_strings = [&](const std::vector<std::string>& names) {
        put_u64(buf, names.size());
        for (const std::string& n : names) put_padded_str(buf, n);
    };
    put_strings(model.pins);
    put_strings(model.fixed_pins);
    put_f64_array(buf, model.fixed_values);
    put_strings(model.internals);
    for (const lut::NdTable* t : model.tables()) put_table(buf, *t);
    return buf;
}

std::uint64_t model_checksum(const core::CsmModel& model) {
    const std::string bytes = encode_model(model);
    return fnv1a_bytes(reinterpret_cast<const unsigned char*>(bytes.data()),
                       bytes.size());
}

// --- PackWriter ----------------------------------------------------------

void PackWriter::add(std::uint32_t kind, std::string name,
                     std::string payload) {
    require(!name.empty(), "PackWriter: empty entry name");
    require(by_name_.emplace(name, entries_.size()).second,
            "PackWriter: duplicate entry name " + name);
    entries_.push_back(Entry{kind, std::move(name), std::move(payload)});
}

void PackWriter::add_model(const std::string& name,
                           const core::CsmModel& model) {
    // The directory content_check is FNV over these bytes, i.e.
    // model_checksum(model), which surfaces reference to detect stale
    // pairings.
    add(kModelKind, name, encode_model(model));
}

void PackWriter::add_surface(const std::string& name,
                             const ArcSurfaceData& surface) {
    require(!surface.arc_id.empty(), "PackWriter: empty surface arc id");
    require(std::isfinite(surface.dt) && surface.dt > 0.0 &&
                std::isfinite(surface.settle) && surface.settle > 0.0,
            "PackWriter: implausible surface parameters");
    std::string buf;
    put_padded_str(buf, surface.arc_id);
    put_f64(buf, surface.dt);
    put_f64(buf, surface.settle);
    put_u64(buf, surface.model_check);
    put_table(buf, surface.delay);
    put_table(buf, surface.slew);
    add(kSurfaceKind, name, std::move(buf));
}

void PackWriter::add_pack(const MappedPack& pack) {
    for (const MappedPack::RawEntry& e : pack.entries_)
        add(e.kind, std::string(e.name), std::string(e.payload));
}

void PackWriter::write(const std::string& path) const {
    // Layout pass: header page, then page-aligned payload sections, then
    // the page-aligned directory (records + name blob).
    std::vector<std::uint64_t> offsets(entries_.size(), 0);
    std::uint64_t off = kPageSize;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        offsets[i] = off;
        off = page_align(off + entries_[i].payload.size());
    }
    const std::uint64_t dir_offset = off;

    std::string dir;
    std::string names;
    std::uint64_t name_base =
        dir_offset + kDirRecordBytes * entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        put_u32(dir, e.kind);
        put_u32(dir, static_cast<std::uint32_t>(e.name.size()));
        put_u64(dir, name_base + names.size());
        put_u64(dir, offsets[i]);
        put_u64(dir, e.payload.size());
        put_u64(dir, fnv1a_bytes(
                         reinterpret_cast<const unsigned char*>(
                             e.payload.data()),
                         e.payload.size()));
        names += e.name;
    }
    const std::uint64_t file_size = name_base + names.size();

    std::string file;
    file.reserve(file_size);
    file.append(kPackMagic, sizeof kPackMagic);
    put_u32(file, kPackFormatVersion);
    put_u32(file, 0);  // reserved
    put_u64(file, file_size);
    put_u64(file, entries_.size());
    put_u64(file, dir_offset);
    put_u64(file, kPageSize);  // body_offset
    const std::size_t check_slot = file.size();
    put_u64(file, 0);  // payload_check, patched below
    put_u64(file, 0);  // header_check, patched below
    file.resize(kPageSize, '\0');
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        file.resize(offsets[i], '\0');
        file += entries_[i].payload;
    }
    file.resize(dir_offset, '\0');
    file += dir;
    file += names;
    require(file.size() == file_size, "PackWriter: layout bookkeeping bug");

    const std::uint64_t payload_check = fnv1a_bytes(
        reinterpret_cast<const unsigned char*>(file.data()) + kPageSize,
        file_size - kPageSize);
    std::string patch;
    put_u64(patch, payload_check);
    file.replace(check_slot, 8, patch);
    const std::uint64_t header_check = fnv1a_bytes(
        reinterpret_cast<const unsigned char*>(file.data()), check_slot + 8);
    patch.clear();
    put_u64(patch, header_check);
    file.replace(check_slot + 8, 8, patch);

    // Same durable publish as every store writer: a crash mid-write can
    // only ever leave a *.tmp.* dropping, never a truncated pack.
    save_bytes_atomically(path, file);
}

PackWriter pack_from_dirs(const std::string& model_dir,
                          const std::string& surface_dir) {
    std::vector<std::string> dirs;
    for (const std::string& dir : {model_dir, surface_dir}) {
        std::error_code ec;
        if (!dir.empty() &&
            (dirs.empty() || !fs::equivalent(dirs.front(), dir, ec)))
            dirs.push_back(dir);
    }
    PackWriter writer;
    for (const std::string& dir : dirs) {
        std::error_code ec;
        std::vector<std::string> paths;
        for (const fs::directory_entry& entry :
             fs::directory_iterator(dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.size() > std::strlen(kPackExt) &&
                name.ends_with(kPackExt) &&
                name.find(".tmp.") == std::string::npos)
                paths.push_back(entry.path().string());
        }
        // Deterministic pack bytes for a given store state.
        std::sort(paths.begin(), paths.end());
        for (const std::string& path : paths)
            writer.add_pack(*MappedPack::map(path));
    }
    return writer;
}

// --- MappedPack ----------------------------------------------------------

std::shared_ptr<const MappedPack> MappedPack::map(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    require(fd >= 0, "mapped_store: cannot open " + path);
    struct ::stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw ModelError("mapped_store: cannot stat " + path);
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size < kPageSize) {
        ::close(fd);
        throw ModelError("mapped_store: " + path +
                         " is too small to be a pack");
    }
    void* mem = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    require(mem != MAP_FAILED, "mapped_store: mmap failed for " + path);

    // From here the mapping must be released on any validation failure.
    auto pack = std::shared_ptr<MappedPack>(new MappedPack());
    pack->path_ = path;
    pack->id_ = stat_to_id(st);
    pack->base_ = static_cast<const unsigned char*>(mem);
    pack->size_ = size;

    const unsigned char* base = pack->base_;
    require(std::memcmp(base, kPackMagic, sizeof kPackMagic) == 0,
            "mapped_store: bad magic (not an MCSM pack): " + path);
    std::uint32_t version = 0;
    std::memcpy(&version, base + sizeof kPackMagic, 4);
    require(version == kPackFormatVersion,
            "mapped_store: unsupported pack version " +
                std::to_string(version));
    MapCursor c(base, sizeof kPackMagic + 8, kHeaderBytes);
    const std::uint64_t file_size = c.u64();
    const std::uint64_t entry_count = c.u64();
    const std::uint64_t dir_offset = c.u64();
    const std::uint64_t body_offset = c.u64();
    const std::uint64_t payload_check = c.u64();
    const std::uint64_t header_check = c.u64();

    require(file_size == size,
            "mapped_store: header size does not match the file (truncated "
            "or concatenated pack): " + path);
    require(fnv1a_bytes(base, kHeaderBytes - 8) == header_check,
            "mapped_store: header checksum mismatch: " + path);
    require(entry_count <= kMaxEntries,
            "mapped_store: implausible entry count (corrupt header)");
    require(body_offset == kPageSize && dir_offset >= body_offset &&
                dir_offset % kPageSize == 0 && dir_offset <= size &&
                entry_count * kDirRecordBytes <= size - dir_offset,
            "mapped_store: corrupt section layout: " + path);
    // The one full-body pass of a map: checksum everything after the
    // header page. After this, readers trust the bytes.
    require(fnv1a_bytes(base + body_offset, size - body_offset) ==
                payload_check,
            "mapped_store: body checksum mismatch: " + path);

    for (std::uint64_t i = 0; i < entry_count; ++i) {
        const std::uint64_t rec = dir_offset + i * kDirRecordBytes;
        std::uint32_t kind = 0;
        std::uint32_t name_len = 0;
        std::memcpy(&kind, base + rec, 4);
        std::memcpy(&name_len, base + rec + 4, 4);
        MapCursor r(base, rec + 8, rec + kDirRecordBytes);
        const std::uint64_t name_off = r.u64();
        const std::uint64_t payload_off = r.u64();
        const std::uint64_t payload_size = r.u64();
        const std::uint64_t content_check = r.u64();
        require(name_off <= size && name_len <= size - name_off,
                "mapped_store: directory name out of bounds");
        require(payload_off % 8 == 0 && payload_off <= size &&
                    payload_size <= size - payload_off,
                "mapped_store: directory payload out of bounds");
        const std::string_view name(
            reinterpret_cast<const char*>(base + name_off), name_len);
        require(!name.empty(), "mapped_store: empty entry name");
        // A model's content_check is its identity (model_check()), which
        // surfaces are matched against: it must describe these bytes, not
        // merely be covered by the body checksum.
        if (fnv1a_bytes(base + payload_off, payload_size) != content_check) {
            std::string what = "mapped_store: content check of entry '";
            what += name;
            what += "' does not match its payload: ";
            what += path;
            throw ModelError(what);
        }
        pack->entries_.push_back(MappedPack::RawEntry{
            kind, name,
            {reinterpret_cast<const char*>(base + payload_off),
             payload_size}});
        MapCursor pc(base, payload_off, payload_off + payload_size);
        if (kind == kSurfaceKind) {
            require(pack->surfaces_.emplace(name, read_surface(pc)).second,
                    "mapped_store: duplicate surface entry");
        } else if (kind == kModelKind) {
            MappedModel model = read_model(pc);
            model.check = content_check;
            require(pack->models_.emplace(name, std::move(model)).second,
                    "mapped_store: duplicate model entry");
        } else {
            throw ModelError("mapped_store: unknown entry kind " +
                             std::to_string(kind));
        }
    }
    return pack;
}

MappedPack::~MappedPack() {
    if (base_ != nullptr)
        ::munmap(const_cast<unsigned char*>(base_), size_);
}

const MappedSurface* MappedPack::find_surface(const std::string& name) const {
    const auto it = surfaces_.find(name);
    return it == surfaces_.end() ? nullptr : &it->second;
}

std::uint64_t MappedPack::model_check(const std::string& name) const {
    const auto it = models_.find(name);
    return it == models_.end() ? 0 : it->second.check;
}

core::CsmModel MappedPack::materialize_model(const std::string& name) const {
    const auto it = models_.find(name);
    require(it != models_.end(),
            "mapped_store: no model '" + name + "' in pack " + path_);
    const MappedModel& e = it->second;
    core::CsmModel m;
    m.kind = e.kind;
    m.cell_name = e.cell_name;
    m.vdd = e.vdd;
    m.dv_margin = e.dv_margin;
    m.temp_c = e.temp_c;
    m.pins.assign(e.pins.begin(), e.pins.end());
    m.fixed_pins.assign(e.fixed_pins.begin(), e.fixed_pins.end());
    m.fixed_values.assign(e.fixed_values.begin(), e.fixed_values.end());
    m.internals.assign(e.internals.begin(), e.internals.end());
    // Payload order is list order; map() checked the count.
    const std::vector<lut::NdTable*> tables = m.reset_tables();
    for (std::size_t i = 0; i < tables.size(); ++i)
        *tables[i] = lut::NdTable(e.tables[i]);
    m.check_consistent();
    return m;
}

namespace {

template <typename Map>
std::vector<std::string> sorted_names(const Map& entries) {
    std::vector<std::string> names;
    names.reserve(entries.size());
    for (const auto& [name, entry] : entries) names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

std::vector<std::string> MappedPack::model_names() const {
    return sorted_names(models_);
}

std::vector<std::string> MappedPack::surface_names() const {
    return sorted_names(surfaces_);
}

// --- PackHost ------------------------------------------------------------

PackHost::PackHost(std::string path) : path_(std::move(path)) {
    MutexLock lock(mutex_);
    pack_ = MappedPack::map(path_);
}

std::shared_ptr<const MappedPack> PackHost::current() const {
    MutexLock lock(mutex_);
    return pack_;
}

bool PackHost::refresh() {
    struct ::stat st {};
    if (::stat(path_.c_str(), &st) != 0) return false;
    {
        MutexLock lock(mutex_);
        if (stat_to_id(st) == pack_->id()) return false;
    }
    // Map outside the lock (checksumming a large pack is not free); a
    // failed map -- torn deploy, corrupt file -- keeps the old mapping.
    std::shared_ptr<const MappedPack> fresh;
    try {
        fresh = MappedPack::map(path_);
    } catch (const ModelError&) {
        return false;
    }
    MutexLock lock(mutex_);
    if (fresh->id() == pack_->id()) return false;
    pack_ = std::move(fresh);  // old mapping retires via refcount
    generation_.fetch_add(1, std::memory_order_acq_rel);
    return true;
}

// --- durable file plumbing -----------------------------------------------

namespace {

// Unique same-process temp name next to `path`; concurrent writers of the
// same key each publish a complete file and the last rename wins.
std::string temp_name(const std::string& path) {
    static std::atomic<unsigned> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter++);
}

[[noreturn]] void fail_errno(const std::string& what) {
    throw ModelError("mapped_store: " + what + " (" +
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
                throw ModelError("mapped_store: cannot re-read " + tmp +
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
    for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
        const fs::directory_entry& entry = *it;
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
