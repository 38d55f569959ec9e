// RemoteStoreView: a sharded store opened from an http:// manifest URL.
//
// The open fetches the manifest (a HEAD, then a GET bounded by the size
// it reported), parks a verbatim copy in the shard cache, and runs the
// ordinary manifest reader over it — so a remote manifest gets every
// structural check a local one does, including the payload checksum
// over the transferred bytes. Shards stay lazy: the shard_local_path()
// override routes each first touch through ShardCache::fetch_shard(),
// and from there on the shard is a local mmap like any other. All the
// serving-tier machinery above (retry, quarantine, DegradedError,
// routing by shard range, swap_store adoption) is inherited unchanged.
#include "core/sharded_store.hpp"

#include "core/shard_cache.hpp"
#include "core/shard_source.hpp"

namespace ftc::core {

namespace {

HttpEndpoint parse_store_url(const std::string& url) {
  HttpEndpoint ep;
  if (!parse_http_url(url, &ep)) {
    throw StoreError("malformed store URL (expected "
                     "http://host[:port]/path/manifest): " + url);
  }
  return ep;
}

// HEADs `name`, then GETs it bounded by the size the HEAD reported, so
// an origin that streams past that size stops the read (a retryable
// size mismatch) instead of growing the buffer. Callers run both
// requests inside one retry_transient(): an object replaced between the
// two requests retries as a pair. Returns nullopt when the object does
// not exist.
std::optional<std::vector<std::uint8_t>> fetch_sized(
    const HttpShardSource& source, const std::string& name) {
  std::uint64_t size = 0;
  if (!source.stat(name, &size)) return std::nullopt;
  return source.fetch(name, size);
}

}  // namespace

std::shared_ptr<const RemoteStoreView> RemoteStoreView::open(
    const std::string& url, bool verify_checksum,
    const std::shared_ptr<const ShardedStoreView>& reuse_from,
    std::shared_ptr<ShardCache> cache) {
  const HttpEndpoint ep = parse_store_url(url);
  if (cache == nullptr) cache = default_remote_cache();
  auto source = std::make_shared<HttpShardSource>(ep.host, ep.port, ep.dir);

  // The manifest is re-fetched on every open (it is the mutable part of
  // a store — epochs move by replacing it), but put_blob content-
  // addresses the copy, so reopening an unchanged epoch rewrites
  // nothing. It is fetched outside open_shard's retry loop, so its HEAD
  // and GET run under one retry_transient() here.
  const auto manifest_bytes =
      retry_transient([&] { return fetch_sized(*source, ep.object); });
  if (!manifest_bytes) {
    throw StoreError("remote object not found: " +
                     source->describe(ep.object));
  }
  const std::string local_manifest = cache->put_blob("manifest",
                                                     *manifest_bytes);

  std::shared_ptr<RemoteStoreView> view(new RemoteStoreView());
  view->url_ = url;
  view->cache_ = std::move(cache);
  view->source_ = std::move(source);
  open_impl(view, local_manifest, verify_checksum, reuse_from,
            /*tolerate_missing_shards=*/false, /*stat_shards=*/false);
  // Error messages and journal validation should name the origin, not
  // the cache copy the manifest reader happened to map.
  view->path_ = url;
  return view;
}

std::string RemoteStoreView::shard_local_path(std::size_t k) const {
  return cache_->fetch_shard(*source_, records_[k]);
}

std::string RemoteStoreView::shard_display_name(std::size_t k) const {
  return source_->describe(records_[k].name);
}

std::string fetch_remote_journal(const std::string& store_url) {
  const HttpEndpoint ep = parse_store_url(store_url);
  const HttpShardSource source(ep.host, ep.port, ep.dir);
  const std::string journal_name = ep.object + ".jrnl";
  const auto bytes =
      retry_transient([&] { return fetch_sized(source, journal_name); });
  if (!bytes) return std::string();
  return default_remote_cache()->put_blob("journal", *bytes);
}

}  // namespace ftc::core
