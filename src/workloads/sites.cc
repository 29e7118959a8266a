#include "workloads/sites.hh"

namespace webslice {
namespace workloads {

using browser::ResourceType;
using browser::SiteContent;

SiteContent
buildSiteContent(const SiteSpec &spec)
{
    Rng rng(spec.seed);

    SiteContent site;
    site.url = spec.url;

    // The parser supplies the body root itself; the document references
    // its stylesheet and script from the head.
    const PageContent page = generatePage(rng, spec.page);
    site.html = page.html;

    site.resources["main.css"] = {ResourceType::Css,
                                  generateCss(rng, spec.css, page)};
    site.resources["app.js"] = {ResourceType::Js,
                                generateJs(rng, spec.js, page)};
    for (const auto &url : page.imageUrls) {
        site.resources[url] = {ResourceType::Image,
                               generateImageBytes(rng, spec.imageBytes)};
    }
    site.html = "<link href=main.css><script src=app.js>" + site.html;
    return site;
}

} // namespace workloads
} // namespace webslice
