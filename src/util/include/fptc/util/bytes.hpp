// Bounds-checked byte codec shared by every binary record: checkpoints
// (nn/serialize), serve snapshots (serve/snapshot) and flight-recorder
// postmortems (serve/flightrec); each format keeps its own header and
// fields.  Values travel in native byte order through memcpy: the records
// are same-host artifacts, and memcpy keeps the codec ubsan-clean.
// ByteReader never reads past its buffer: a short read copies nothing and
// clears a sticky ok() flag, so a decoder may read a run of fields and test
// ok() once.  The CRC32 trailer (IEEE 802.3, reflected 0xEDB88320) covers
// the bytes from the end of a format's header up to the trailer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace fptc::util {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    return table;
}

inline constexpr auto kCrc32Table = make_crc32_table();

} // namespace detail

/// CRC32 of one contiguous buffer (0 for an empty one).
[[nodiscard]] inline std::uint32_t crc32(std::string_view data)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char byte : data) {
        crc = detail::kCrc32Table[(crc ^ static_cast<unsigned char>(byte)) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

/// The trailer widths the formats use.
template <class T>
concept CrcTrailer = std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

/// Appends fixed-width values and length-prefixed strings to a byte string.
class ByteWriter {
public:
    void put_bytes(const void* data, std::size_t size)
    {
        out_.append(static_cast<const char*>(data), size);
    }

    template <class T>
        requires std::is_trivially_copyable_v<T>
    void put(const T& value)
    {
        put_bytes(&value, sizeof value);
    }

    /// u64 length, then the bytes.
    void put_string(std::string_view value)
    {
        put<std::uint64_t>(value.size());
        put_bytes(value.data(), value.size());
    }

    /// Append the CRC32 of every byte from offset `from` on.
    template <CrcTrailer Trailer>
    void put_crc32(std::size_t from)
    {
        put<Trailer>(crc32(std::string_view(out_).substr(from)));
    }

    [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
    [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
    [[nodiscard]] std::string take() noexcept { return std::move(out_); }

private:
    std::string out_;
};

/// Sequential reader over a byte view.  The view must outlive the reader.
class ByteReader {
public:
    explicit ByteReader(std::string_view data) noexcept : data_(data) {}

    /// Copy the next `size` bytes to `dest`; when fewer remain, copy
    /// nothing, clear ok() and return false.
    bool get_bytes(void* dest, std::size_t size) noexcept
    {
        if (!ok_ || size > remaining()) {
            ok_ = false;
            return false;
        }
        std::memcpy(dest, data_.data() + off_, size);
        off_ += size;
        return true;
    }

    template <class T>
        requires std::is_trivially_copyable_v<T>
    bool get(T& value) noexcept
    {
        return get_bytes(&value, sizeof value);
    }

    /// The next value, or T{} on a short read.
    template <class T>
        requires std::is_trivially_copyable_v<T>
    [[nodiscard]] T get() noexcept
    {
        T value{};
        get(value);
        return value;
    }

    /// True when the next `size` bytes equal `expected` (a format magic).
    bool expect_bytes(const void* expected, std::size_t size) noexcept
    {
        if (!ok_ || size > remaining() || std::memcmp(data_.data() + off_, expected, size) != 0) {
            ok_ = false;
            return false;
        }
        off_ += size;
        return true;
    }

    /// A string written by ByteWriter::put_string; a length above
    /// `max_len` or beyond the buffer fails without allocating.
    bool get_string(std::string& out, std::uint64_t max_len)
    {
        const auto len = get<std::uint64_t>();
        if (!ok_ || len > max_len || len > remaining()) {
            ok_ = false;
            return false;
        }
        out.assign(data_.data() + off_, static_cast<std::size_t>(len));
        off_ += static_cast<std::size_t>(len);
        return true;
    }

    /// Read a CRC32 trailer and compare it with the CRC32 of the bytes from
    /// offset `from` up to the trailer.  A short buffer clears ok(); a
    /// mismatch returns false with ok() still set, so callers can tell
    /// truncation from corruption.
    template <CrcTrailer Trailer>
    [[nodiscard]] bool check_crc32(std::size_t from) noexcept
    {
        const std::size_t end = off_;
        Trailer stored = 0;
        if (from > end || !get(stored)) {
            ok_ = false;
            return false;
        }
        return stored == crc32(data_.substr(from, end - from));
    }

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    /// Every byte consumed and no read failed: the exact-end check that
    /// makes a record with trailing bytes invalid.
    [[nodiscard]] bool at_end() const noexcept { return ok_ && off_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - off_; }

private:
    std::string_view data_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

} // namespace fptc::util
