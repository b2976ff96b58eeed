namespace emv::segment {

bool
EscapeFilter::mayContain(Addr addr) const
{
    ++_stats.counter("positives");
    return true;
}

} // namespace emv::segment
